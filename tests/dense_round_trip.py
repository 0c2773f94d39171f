"""A dense Liouvillian read back as triplets, for tests only.

polent forms no dense L; the tests build one with Liouvillian.matrix or by
hand, and liouvillian_from_dense reads it back as polent's triplets, the
round trip they check the triplet assembly against.
"""

import numpy as np

from polent.lindblad import Liouvillian


def liouvillian_from_dense(space, m) -> Liouvillian:
    """The Liouvillian of one dense (d^2, d^2) matrix, or of an (N, d^2, d^2) stack, as its nonzeros."""
    m = np.asarray(m, dtype=complex)
    rows, cols = np.nonzero(m if m.ndim == 2 else (m != 0).any(axis=0))
    return Liouvillian(space, rows, cols, m[..., rows, cols])
