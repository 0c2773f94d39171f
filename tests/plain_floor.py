"""The separable floor drawn anew on every call, block by block, for tests only.

entangle.separable_floor draws its samples in one pass and keeps the
default set from a process's first call (entangle._default_samples);
plain_floor is the loop it replaced, which draws and evaluates BLOCK
samples at a time on every call, and which the tests check separable_floor
against bit for bit.
"""

import numpy as np

from polent import entangle

BLOCK = 1024  # samples drawn and evaluated at a time


def _expectations(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Tr[W (a x b)] for the product states that the uniforms u (n, 4) pick
    return np.einsum("nj,jk,nk->n", entangle._bloch_vectors(u[:, :2]), c, entangle._bloch_vectors(u[:, 2:]))


def plain_floor(w, n_pure: int = entangle.N_PURE_SAMPLES, n_mixed: int = entangle.N_MIXED_SAMPLES,
                seed: int = entangle.SAMPLING_SEED, block: int = BLOCK) -> float:
    """Minimum witness expectation over n_pure product states and n_mixed mixtures of two, drawn in blocks."""
    c = w.coefficients
    rng = np.random.default_rng(seed)
    floor = np.inf
    for start in range(0, n_pure, block):
        u = rng.random((min(block, n_pure - start), 4))
        floor = min(floor, _expectations(c, u).min())
    for start in range(0, n_mixed, block):
        u = rng.random((min(block, n_mixed - start), 9))
        p = u[:, 0]
        mixed = p * _expectations(c, u[:, 1:5]) + (1.0 - p) * _expectations(c, u[:, 5:])
        floor = min(floor, mixed.min())
    return float(floor)
