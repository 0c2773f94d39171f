"""Liouvillian assembly, steady-state solving, and fixed-step time evolution.

The stationarity of any state is judged here only, as ||L vec(rho)|| with
the Liouvillian built from the model (stationarity_residuals), summed from
L's nonzero triplets for every L and every stack; the closed-form and
numeric routes are both checked against it, and no library code forms a dense L.
The solves and RK4 read L only through _real_form, in the Hermitian basis
of _owners.
steady_state has one route per input, by L's size (LEVEL_SIDE): levels from
side 784 on, a whole inverse below it (0.29 against 1.7 ms at side 16) and
for every stack. There is no fallback: a result that fails its checks raises.
The level route solves in an exchange-adapted basis (_exchange): the full
model's two qubits are identical and couple alike, so its L commutes with
their swap, and B falls into an exchange-even block of 10 (n_max + 1)^2
coordinates and an exchange-odd one of 6 (n_max + 1)^2, factored one after
the other. RK4 steps in the same basis, and only in the parts of its pattern
that the initial state reaches: 10 of the reduced model's 16 coordinates
from |gg>. The whole inverse stays in the plain basis.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho), with
vec(rho) = rho.ravel(order="F"). With A = -iH - 1/2 sum_j J_j^dagger J_j, the
Liouvillian is

    L = I kron A + conj(A) kron I + sum_j conj(J_j) kron J_j,

because -i[H, rho] - 1/2 {J^dagger J, rho} = A rho + rho A^dagger for Hermitian
H and J^dagger J. A Liouvillian is stored as its nonzero entries only, as
(row, column, value) triplets. build_liouvillian writes them from the
nonzeros of A, in the places of I kron A and conj(A) kron I, and from the
products of each J's nonzeros, so no (d^2, d^2) matrix is formed; the full
model has about 9.4 nonzeros per row of L. A stacked model is assembled the same
way into a stack on one pattern, so one build serves a point and a grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qops
from .model import LindbladModel
from .qops import DensityMatrix, HilbertSpace, InvalidStateError

GAP_FLOOR = 1e-8
RESIDUAL_TOL = 1e-9
DRIFT_ABORT = 1e-6
STABILITY_SLACK = 1e-9
DEFAULT_DT = 1e-3
# evolve's steps per anchor, and anchors per super-anchor (every STRIDE^2 steps). One evolve to
# t = 50 at dt = 1e-3 from |gg> at (5.210641, 1.107693), sampled every 100 steps, by STRIDE 64 /
# 128 / 256, ms: the self times of the fastest of 9 runs in each of 5 rounds over the widths, in
# the fastest of 3 runs of the table, 2 CPUs (tools/solve_costs.py, evolve). The set-up's
# build_liouvillian, _real_form and _to_exchange_basis 0.47 / 0.50 / 0.50, the X_j 0.07 / 0.11 /
# 0.16 and the anchor level's Y_b 0.05 / 0.09 / 0.13 (_step_powers), batch products 0.78 / 0.74 /
# 0.81, drift 0.39 / 0.30 / 0.29, sample matrices 0.23 / 0.20 / 0.21, their check 0.43 / 0.37 /
# 0.47, evolve's own set-up and loop 0.76 / 0.74 / 0.74, and in all 3.17 / 3.05 / 3.31. Timed call
# by call in turn, 300 calls each in one process, 128 was faster than 64 in 263 and 300 of 300
# pairs of two such processes
STRIDE = 128
# steady_state solves one L of at least this side (full model, n_max >= 6) by
# levels, and a smaller one whole. Whole inverse against levels, steady_state
# best of 9 in one process, the best of 3 such processes, 2 CPUs (OpenBLAS;
# tools/solve_costs.py, routes): 0.28 / 1.4 ms at side 16, 0.41 / 2.2 at 64,
# 1.1 / 3.3 at 144, 4.4 / 5.1 at 256, 10.6 / 7.7 at 400, 22.7 / 11.0 at 576,
# 45.5 / 16.2 at 784 and 128 / 32 at 1296. Levels are faster from 400 on, but
# the whole inverse keeps the sides below 784, at most 2.1 times as slow there:
# it is the more accurate route where the rates span many orders, as a reflection
# of the level route pivots across two levels only (test_lindblad's side-64
# case at alpha = 1e8 is 4.3e-3 off by levels)
LEVEL_SIDE = 784
# columns per Householder block of _eliminate. steady_state by levels at side
# 784 / 1296 by block width, best of 9 in one process, the best of 3 such
# processes (tools/solve_costs.py, blocks): 20.0 / 42.6 ms at 8, 16.9 / 35.7 at
# 16, 16.4 / 33.8 at 24, 16.4 / 33.2 at 32, 15.9 / 33.5 at 48, 16.8 / 36.1 at 64,
# and 18.9 / 41.3 as one block per level: 32 is the fastest at 1296 and within
# 4 % of the fastest at 784
BLOCK = 32


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional within tolerance."""


class IntegrationError(Exception):
    """The fixed-step integrator went unstable, lost the trace or left the density matrices."""


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Superoperator on column-stacked density matrices, as its nonzero entries.

    L[rows[t], cols[t]] = values[..., t], and every other entry is 0. The (row, col)
    pairs are distinct and in row-major order. ``values`` is (nnz,) for one L, and
    (N, nnz) for a stack of N on one pattern, where each position is nonzero in some
    member. Every L is made from triplets; none is read back from a dense matrix.
    """

    space: HilbertSpace
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.space.dim**2
        rows, cols = np.asarray(self.rows, dtype=int), np.asarray(self.cols, dtype=int)
        values = np.ascontiguousarray(self.values, dtype=complex)
        if (rows.ndim != 1 or rows.shape != cols.shape or values.ndim not in (1, 2)
                or values.shape[-1] != len(rows)):
            raise ValueError(f"triplet shapes {rows.shape}, {cols.shape} and {values.shape} do not match")
        inside = (0 <= rows) & (rows < n) & (0 <= cols) & (cols < n)
        if not (inside.all() and (np.diff(rows * n + cols) > 0).all()):
            raise ValueError(f"positions must be distinct entries of an {n}x{n} matrix, in row-major order")
        for name, array in (("rows", rows), ("cols", cols), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def matrix(self) -> np.ndarray:
        """The dense (d^2, d^2) matrix, or (N, d^2, d^2) stack, formed anew on each access:
        read by no library code, only by the tests and the benchmark's tracer."""
        n = self.space.dim**2
        out = np.zeros(self.values.shape[:-1] + (n, n), dtype=complex)
        out[..., self.rows, self.cols] = self.values
        return out


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    """Steady state with its defect norm and a certified uniqueness gap.

    residual is ||L vec(rho)||_2; gap is a certified lower bound on the second-smallest
    singular value of L. For a stack, rho is a stack and residual and gap are arrays.
    """

    rho: DensityMatrix
    residual: float | np.ndarray
    gap: float | np.ndarray


def _assemble(space: HilbertSpace, a: np.ndarray, jumps) -> Liouvillian:
    """I kron A + conj(A) kron I + sum_j conj(J_j) kron J_j, from the nonzeros of A and each J_j.

    A is (d, d), or (N, d, d) for a stack on shared jumps. Within one term the
    positions are distinct. Where terms meet, each member sums them in that
    order from 0, as += on a zero matrix sums them, on the union of the
    members' patterns; a position that sums to exactly 0 in every member is
    dropped, and a member holds +0.0 where only others need a position.
    """
    d = space.dim
    n = d * d
    p = np.arange(d)
    lead, stack = a.shape[:-2], a.reshape(-1, d, d)
    r, c = np.nonzero((stack != 0).any(axis=0))
    v = a[..., r, c]
    # entry (i, j) of L has key i n + j. I kron A has a_rc at (p d + r, p d + c),
    # conj(A) kron I has conj(a_rc) at (r d + p, c d + p), conj(J) kron J has
    # conj(j_rc) j_st at (r d + s, c d + t). Each term is a column of parts: v, conj(v), jump products
    keys = [np.add.outer(p * (d * n + d), r * n + c), np.add.outer(r * d * n + c * d, p * (n + 1))]
    parts = [v, v.conj()]
    for jump in jumps:
        r, c = np.nonzero(jump)
        j = jump[r, c]
        keys.append(np.add.outer(r * d * n + c * d, r * n + c))
        parts.append(np.broadcast_to(np.multiply.outer(j.conj(), j).ravel(), lead + (len(j) ** 2,)))
    keys, where = np.unique(np.concatenate([k.ravel() for k in keys]), return_inverse=True)
    parts = np.concatenate(parts, axis=-1)
    i = np.arange(v.shape[-1])
    source = np.concatenate([np.tile(i, d), np.repeat(i + len(i), d), np.arange(2 * len(i), parts.shape[-1])])
    # each key's terms in order, layer by layer (the k-th term of each key that has one): gathers of
    # the few columns of parts, on a stack about twice as fast as a per-member bincount of every term
    order = np.argsort(where, kind="stable")
    layer = np.arange(len(order)) - np.searchsorted(where[order], where[order])
    total = parts.take(source[order[layer == 0]], axis=-1)  # C-ordered, unlike parts[..., i]
    total += 0.0  # summed from 0, so a -0 first term leaves +0
    for k in range(1, layer.max(initial=0) + 1):
        total[..., where[order[layer == k]]] += parts.take(source[order[layer == k]], axis=-1)
    live = (total != 0).reshape(len(stack), len(keys)).any(axis=0)
    return Liouvillian(space, keys[live] // n, keys[live] % n, total.compress(live, axis=-1))


def build_liouvillian(m: LindbladModel) -> Liouvillian:
    """-i[H, .] plus the jump dissipators as L's nonzero entries; a stacked model gives one L per member."""
    a = -1j * m.hamiltonian
    for jump in m.jumps:
        a -= 0.5 * (jump.conj().T @ jump)
    return _assemble(m.space, a, m.jumps)


def steady_state(liouv: Liouvillian) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with Tr rho = 1, for one Liouvillian or a stack.

    B is L in a real orthonormal basis of Hermitian matrices with the trace
    condition in place of the first population row (the direct method of
    QuTiP; Johansson, Nation and Nori, CPC 183, 1760 (2012)). Column 0 of
    B^-1 gives rho, Hermitian by construction; gap = 1/||B^-1||_F <=
    sigma_min(B) <= sigma_{n-1}(L), as B - L has rank one (Horn and Johnson,
    Topics in Matrix Analysis, Thm 3.3.16). B's entries are read once, by
    one sort of L's triplets (_real_form). One Liouvillian of side
    LEVEL_SIDE (784) or more is triangularized level by level
    (_solve_by_levels), its exchange-even and -odd blocks apart, the same
    column and norm without forming B or B^-1; every stack, and a smaller
    Liouvillian as a stack of one, is inverted whole in one batch, the more
    accurate route at extreme rates (both routes' times are in LEVEL_SIDE's
    comment). There is no fallback: a
    result raises DegenerateSteadyStateError when gap <= GAP_FLOOR, and when the residual
    exceeds RESIDUAL_TOL times the largest entry of L (at least 1), so that
    c L gives the state of L at every scale c; a stack names its first failure.
    """
    d = liouv.space.dim
    k, l, entries, largest = _real_form(liouv)
    if liouv.values.ndim == 1 and d * d >= LEVEL_SIDE:
        coords, gap = _solve_by_levels(k, l, entries[0], liouv.space, largest[0])
        coords, gaps = coords[None], np.array([gap])
    else:
        coords, gaps = _solve_whole(k, l, entries, d)
    n = len(gaps)
    degenerate = ~(gaps > GAP_FLOOR)  # "not >" so that NaN fails
    if degenerate.any():
        i = int(np.argmax(degenerate))
        raise DegenerateSteadyStateError(
            f"stationary space is degenerate (gap {gaps[i]:.3e} <= {GAP_FLOOR:g})" + _which(i, n)
        )
    mats = _from_coordinates(coords, d)
    residuals = stationarity_residuals(liouv, mats)
    # the largest entry of L sets its scale; unlike a norm it cannot overflow
    bounds = RESIDUAL_TOL * np.maximum(1.0, largest)
    failed = ~(residuals <= bounds)
    if failed.any():
        i = int(np.argmax(failed))
        raise DegenerateSteadyStateError(
            f"steady-state residual {residuals[i]:.3e} exceeds {bounds[i]:.3g}" + _which(i, n)
        )
    if liouv.values.ndim == 1:
        mats, residuals, gaps = mats[0], float(residuals[0]), float(gaps[0])
    return SteadyStateResult(DensityMatrix(liouv.space, mats), residuals, gaps)


def _solve_whole(k: np.ndarray, l: np.ndarray, entries: np.ndarray,
                 d: int) -> tuple[np.ndarray, np.ndarray]:
    """Column 0 of each B^-1 and 1/||B^-1||_F, from a stack's _real_form, each B inverted whole.

    Column 0 is copied, so B^-1 is freed on return.
    """
    bordered = np.zeros((len(entries), d * d, d * d))
    bordered[:, k, l] = entries
    bordered[:, 0] = np.arange(d * d) < d  # Tr B_k in place of the first population's row
    inverse = _inverse(bordered)
    return inverse[..., 0].copy(), 1.0 / np.sqrt(np.einsum("kij,kij->k", inverse, inverse))


def _inverse(mats: np.ndarray) -> np.ndarray:
    """inv of each matrix of a stack; an exactly singular one gets an infinite inverse (gap 0)."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:  # one singular member fails the whole stack
        return np.stack([_inverse(m) for m in mats]) if mats.ndim > 2 else mats + np.inf


def stationarity_residuals(liouv: Liouvillian, states: np.ndarray) -> np.ndarray:
    """||L vec(rho)||_2 for each Liouvillian of a stack and the state at the same index.

    ``states`` is an (N, d, d) stack for a stack of N Liouvillians, or one
    (d, d) matrix for one Liouvillian; the result is an (N,) array. This is
    the one stationarity residual: steady_state checks its solutions with
    it, and the closed form is checked with it against the same L. Every L
    and every stack is applied from its nonzero triplets, O(nnz) per member:
    one bincount sums each member's products into its rows, in the order of
    the triplets and from 0, so an explicit zero that another member puts in
    a stack's pattern cannot move a row's bits.
    """
    n = liouv.space.dim**2
    vecs = np.asarray(states).swapaxes(-1, -2).reshape(-1, n)  # column-stacked
    terms = liouv.values * vecs[:, liouv.cols]
    slots = (liouv.rows + n * np.arange(len(terms))[:, None]).ravel()  # row + n member
    parts = [np.bincount(slots, part.ravel(), n * len(terms)).reshape(-1, n)
             for part in (terms.real, terms.imag)]
    # an exact power-of-two scaling before squaring keeps a finite defect's norm finite
    exponent = np.frexp(np.maximum(abs(parts[0]), abs(parts[1])).max(axis=-1))[1]
    re, im = (np.ldexp(part, -exponent[:, None]) for part in parts)
    return np.ldexp(np.sqrt((re**2 + im**2).sum(axis=-1)), exponent)


def _which(k: int, n: int) -> str:
    return f" (Liouvillian {k} of a stack of {n})" if n > 1 else ""


@functools.cache
def _owners(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis B_k: the two coordinates owning each vec index, their units and their values.

    The B_k are an orthonormal basis of Hermitian d x d matrices, so real
    coordinates give Hermitian matrices: E_ii for k < d, then
    (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2) for i < j. All three
    are (d^2, 2); a value is its unit times 1 (k < d) or 1/sqrt(2). The pair
    i < j owns (i, j) with units (1, i) and (j, i) with units (1, -i), in
    its real and imaginary coordinates; E_ii owns (i, i) with unit 1, and
    its second slot repeats it with unit 0. Computed once per d; the arrays
    are read-only.
    """
    i, j, diag = *np.triu_indices(d, 1), np.arange(d)
    owners = np.empty((d, d, 2), dtype=int)
    units = np.zeros((d, d, 2), dtype=complex)
    owners[diag, diag], units[diag, diag, 0] = diag[:, None], 1.0
    owners[i, j] = owners[j, i] = d + np.arange(len(i))[:, None] + [0, len(i)]
    units[i, j], units[j, i] = (1.0, 1j), (1.0, -1j)
    # entry (i, j) has vec index i + j d
    owners, units = owners.swapaxes(0, 1).reshape(d * d, 2), units.swapaxes(0, 1).reshape(d * d, 2)
    tables = owners, units, units * np.where(owners < d, 1.0, 1.0 / np.sqrt(2.0))
    for table in tables:
        table.setflags(write=False)
    return tables


def _from_coordinates(r: np.ndarray, d: int) -> np.ndarray:
    """sum_k r_k B_k, as (N, d, d) matrices, for each row r of an (N, d^2) array of coordinates."""
    owners, _, values = _owners(d)
    # a new C-ordered array whatever r's layout, so a row's matrix lies alike in any stack
    vecs = np.ascontiguousarray((r[:, owners] * values).sum(axis=-1))
    return vecs.reshape(len(r), d, d).swapaxes(-1, -2)  # vec is column-stacking


def _real_form(liouv: Liouvillian) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L in the basis of _owners, Re(U^dagger L U) with vec(B_k) in column k of U; and max|L_ij|.

    For one L or a stack: the rows k and columns l of the entries that L's
    nonzero pattern reaches, block by block, an (N, len(k)) array of
    their values, and each L's largest |L_ij|. The triplets are read in
    blocks, by one sort of their keys: a block holds the at most 4 triplets
    whose rows have first owner p and whose columns have first owner q, in
    slots 2 [row is (i, j), i < j] + [column is], which is their order in L.
    The block gives the entries at rows p and p's second owner and columns q
    and q's second owner, each a +-sum of real or imaginary parts of the
    block's triplets, added slot by slot from +0, exact, and scaled once by
    1, 1/sqrt(2) or 1/2: scaling first would leave rounding of the largest
    entries (1e183 at zeta 1e200) where they cancel.
    """
    d = liouv.space.dim
    n, nnz = d * d, len(liouv.rows)
    rows, cols = liouv.rows, liouv.cols
    values = np.atleast_2d(liouv.values)
    owners, units, _ = _owners(d)
    first, upper = owners[:, 0], units[:, 1].imag > 0  # upper: entry (i, j) with i < j
    key = first[rows] * n + first[cols]
    slot = 2 * upper[rows] + upper[cols]
    # one key per triplet, so that a block's triplets come by slot. L's triplets come row by row,
    # so the keys come in runs, which a stable sort merges: faster than np.argsort here
    order = np.argsort(key * 4 + slot, kind="stable")
    key = key[order]
    starts, block = _runs(key)
    layer = np.arange(nnz) - starts[block]
    count = len(starts)
    table = np.full((layer.max(initial=0) + 1, count), nnz)  # layer, block; triplet nnz reads +0
    table.reshape(-1)[layer * count + block] = order
    p = key[starts] // n
    q = key[starts] - p * n
    pair_row, pair_column = p >= d, q >= d
    # entry (a, b) of block j = (p, q) is at row (p, second[p])[a] and column (q, second[q])[b]; a = 1
    # only at a pair row, b = 1 only at a pair column
    live = np.stack([q >= 0, pair_column, pair_row, pair_row & pair_column], axis=1).reshape(-1)
    where = np.flatnonzero(live)  # 4 j + entry 2 a + b
    second = np.arange(n)
    second[first] = owners[:, 1]
    k = np.stack([p, p, second[p], second[p]], axis=1).take(where)
    l = np.stack([q, second[q], q, second[q]], axis=1).take(where)
    # entry (a, b) of a triplet t is Re(conj(row unit a) column unit b L_t): +-Re L_t or +-Im L_t,
    # float 2t or 2t + 1 of L's floats or of their negations, by its slot, as a first owner's unit
    # is 1 and a second's is i at an upper entry and -i at a lower
    imag = np.array([0, 1, 1, 0])
    negative = np.array([[0, 0, 1, 0], [0, 1, 1, 1], [0, 0, 0, 1], [0, 1, 0, 0]])  # slot, entry
    offset = imag + (2 * nnz + 2) * negative
    index = offset.take(np.append(slot, 0), axis=0) + 2 * np.arange(nnz + 1)[:, None]  # triplet, entry
    pick = index.reshape(-1).take(4 * table.take(where >> 2, axis=1) + (where & 3))  # layer, entry
    # one row per float of L: the floats, 2 zeros, their negations, 2 zeros; a row holds the members
    parts = np.empty((4 * nnz + 4, len(values)))
    parts[:2 * nnz] = values.view(float).T
    np.multiply(parts[:2 * nnz], -1.0, out=parts[2 * nnz + 2:-2])
    parts[2 * nnz:2 * nnz + 2] = parts[-2:] = 0.0
    entries = parts.take(pick[0], axis=0)
    entries += 0.0  # summed from +0, so a -0 first part leaves +0
    for part in pick[1:]:
        entries += parts.take(part, axis=0)
    scale = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])  # |a_k a_l| by the off-diagonal units, a block's alike
    entries *= scale[pair_row.astype(int) + pair_column][where >> 2, None]
    return k, l, entries.T, np.abs(values).max(axis=-1, initial=0.0)


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal keys of a sorted array starts, and the run of each key."""
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    return np.flatnonzero(new), np.cumsum(new) - 1


def _levels(k: np.ndarray, l: np.ndarray, n: int) -> np.ndarray:
    """Breadth-first level of each of n coordinates over the pattern (k, l), rooted at 0.

    The search follows each pair both ways, so an edge joins levels that
    differ by at most 1. A part of the pattern the search does not reach
    gets its own levels after the last one, from its smallest coordinate.
    Each front is grown as a mask over the coordinates, in order.
    """
    edges = np.sort(np.concatenate([k * n + l, l * n + k]))
    source = edges // n
    target = edges - source * n
    first = np.searchsorted(source, np.arange(n + 1))
    first, last = first[:-1], first[1:]
    level = np.full(n, -1)
    unseen = np.ones(n, dtype=bool)
    depth, front = 0, np.zeros(0, dtype=int)
    while len(front) or unseen.any():
        if not len(front):
            front = np.flatnonzero(unseen)[:1]
        level[front], unseen[front] = depth, False
        depth += 1
        start = first[front]
        counts = last[front] - start
        reach = np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        grown = np.zeros(n, dtype=bool)
        grown[target[reach]] = True
        front = np.flatnonzero(grown & unseen)
    return level


def _reached(a: np.ndarray, held: np.ndarray) -> np.ndarray:
    """The coordinates of the parts of a's nonzero pattern that hold a coordinate of ``held``.

    As in _levels, each pair is followed both ways, so the result is a union
    of whole parts: a's rows and columns there meet nowhere else.
    """
    linked = (a != 0) | (a != 0).T
    while True:
        grown = held | linked[:, held].any(axis=1)
        if (grown == held).all():
            return held
        held = grown


def _exchange(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """The swap of subsystems 0 and 1 on the coordinates of _owners, k -> sign[k] e_image[k].

    E_ii goes to E_pi(i)pi(i) and a pair to a pair; an imaginary pair
    coordinate flips its sign where the swap reverses i < j. It is an
    involution, so sign[image[k]] = sign[k]. With one subsystem, or
    dims[0] != dims[1], it is the identity. Coordinate 0, E_00, is fixed
    with sign 1.
    """
    d, dims = space.dim, space.dims
    swap = np.arange(d)
    if len(dims) > 1 and dims[0] == dims[1]:
        q = dims[0]
        swap = swap - swap % (q * q) + swap % q * q + swap // q % q  # subsystem 0 is the fastest index
    i, j = np.triu_indices(d, 1)
    pair = np.empty((d, d), dtype=int)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    image = pair[swap[i], swap[j]]
    image = np.concatenate([swap, d + image, d + len(i) + image])
    return image, np.concatenate([np.ones(d + len(i)), np.where(swap[i] < swap[j], 1.0, -1.0)])


def _to_exchange_basis(k: np.ndarray, l: np.ndarray, values: np.ndarray, image: np.ndarray,
                       sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O^T B O from B's triplets (k, l, values), O the exchange-adapted basis of (image, sign).

    O's columns are the even (e_k + s e_pi(k))/sqrt(2) at k and the odd
    (e_k - s e_pi(k))/sqrt(2) at pi(k) for each orbit k < pi(k) of _exchange,
    and e_k for a fixed k, which keeps the sector of its sign. B's entries
    are read in blocks, by one sort of their keys: a block holds the at
    most 4 entries whose rows lie in one orbit and whose columns lie in
    another, 0 where absent. Rows first, then columns: an orbit's rows a (at
    k) and b (at pi(k)) become a + s b and a - s b, and a fixed row stays;
    each summand is summed from +0 first. Each new entry is one add of two,
    so where B commutes with the exchange bit for bit, an entry across the
    sectors is x - x = 0 exactly. The entries are scaled once at the end,
    by 1, 1/sqrt(2) or 1/2, and handed out slot by slot, in no order that
    a reader relies on.
    """
    n = len(image)
    low = np.minimum(np.arange(n), image)
    top, left = low[k], low[l]
    slot = 2 * (k != top) + (l != left)  # at (k, l), (k, pi(l)), (pi(k), l) or (pi(k), pi(l))
    key = top * n + left
    # not stable, as B's entries come in no runs of keys: 0.20 against 0.27 ms at side 784
    order = np.argsort(key)
    key = key[order]
    starts, block = _runs(key)
    top = key[starts] // n
    left = key[starts] - top * n
    count = len(starts)
    grid = np.zeros((4, count))  # slot, block
    grid.reshape(-1)[slot[order] * count + block] = values[order]
    grid += 0.0  # each entry summed from +0, as a bincount sums it, so that no sum below is -0
    # rows, then columns, in place: the first row or column of an orbit takes a + s b, the second a - s b
    for first, second, s in ((slice(0, 2), slice(2, 4), sign[top]),
                             (slice(0, 4, 2), slice(1, 4, 2), sign[left])):
        b = s * grid[second]
        np.subtract(grid[first], b, out=grid[second])
        grid[first] += b
    paired = image != np.arange(n)
    row, column = paired[top], paired[left]
    scale = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])  # |O_km O_lm'| by the orbits
    grid *= scale[row.astype(int) + column]
    # the slots at pi(k) or pi(l) are entries only where that orbit is a pair
    live = np.stack([np.ones(count, dtype=bool), column, row, row & column])
    k = np.stack([top, top, image[top], image[top]])[live]
    l = np.stack([left, image[left], left, image[left]])[live]
    return k, l, grid[live]


def _exchange_rotation(x: np.ndarray, image: np.ndarray, sign: np.ndarray, back: bool) -> np.ndarray:
    """x' = O^T x, or x = O x' when back, for each row of x; O the basis of _to_exchange_basis.

    Each orbit k < pi(k) of _exchange mixes its two coordinates a (at k) and
    b (at pi(k)) into (a + b, a - b)/sqrt(2), with the orbit's sign s on b:
    on the way in it multiplies x's b before the mix, on the way back the
    mix's b after it. A fixed coordinate stays.
    """
    coordinate = np.arange(len(image))
    low, high = np.minimum(coordinate, image), np.maximum(coordinate, image)
    paired = low != high
    flip = np.where(coordinate == low, 1.0, sign)
    if not back:
        x = x * flip
    a, b = x[..., low], np.where(paired, x[..., high], 0.0)
    mixed = np.where(coordinate == low, a + b, a - b) * np.where(paired, 1.0 / np.sqrt(2.0), 1.0)
    return mixed * flip if back else mixed


def _solve_by_levels(k: np.ndarray, l: np.ndarray, values: np.ndarray, space: HilbertSpace,
                     largest: float) -> tuple[np.ndarray, float]:
    """Column 0 of B^-1 and 1/||B^-1||_F, level by level, from one L's _real_form and max|L_ij|.

    B is first rotated into the exchange-adapted basis O of _exchange,
    B' = O^T B O (_to_exchange_basis). Row 0 stays the trace row, now the
    traces of O's columns: sqrt(2) on an even pair of populations, 1 on a
    fixed population, 0 elsewhere. Where L commutes with the exchange of
    subsystems 0 and 1 bit for bit, as the full model's L does, every entry
    across the even and odd sectors is x - x = 0 and dropped, so B' falls
    into two blocks and _levels gives the odd block levels of its own after
    the even block's: two narrow problems instead of one wide one. O is
    orthogonal, so B^-1 = O B'^-1 O^T: x = O x' and ||B^-1||_F = ||B'^-1||_F.
    Any other L takes the same path, its pattern left connected.

    _triangularize_by_levels gives DB' = QR, Q orthogonal and D the identity
    but for D_00 = s, one level's rows of R at a time, each by blocked
    Householder QR of that level's columns alone (_eliminate). So
    B'^-1 = R^-1 Q^T D: its column 0 is x' = R^-1 c, with c = Q^T D e_0,
    its other columns are those of R^-1 Q^T, and
    ||B'^-1||_F^2 = ||R^-1||_F^2 + (1 - 1/s^2) ||x'||^2. R^-1's rows at level k
    are X_k = P_k E_k + A_k Z_{k+1}, with P_k = R_kk^-1, E_k the identity's
    rows, A_k = -P_k [R_k,k+1 | R_k,k+2 | f_k] and Z_{k+1} the rows
    [X_{k+1}; X_{k+2}; tau_{k+3}], tau_{k+3} being the trace row times R^-1's
    rows from level k + 3 on. Z_{k+1} is zero in level k's columns, where
    E_k lives, so X_k X_k^T = P_k P_k^T + A_k G_{k+1} A_k^T and the Gram
    matrix G_k = Z_k Z_k^T follows from G_{k+1} alone. Summing the traces
    from the last level to the root gives ||R^-1||_F^2 from blocks of the
    levels' sizes, and x' is back-substituted alongside. O, B, R^-1 and
    B^-1 are never formed. An exactly singular block, or a failed LAPACK
    call on a non-finite one, gives gap 0. Each G_k is written by blocks
    into one array. The README's table gives the cost of each stage
    (tools/solve_costs.py, stages).
    """
    d = space.dim
    n = d * d
    image, sign = _exchange(space)
    k, l, values = _to_exchange_basis(k, l, values, image, sign)
    keep = (k != 0) & (values != 0)  # row 0 of B' is the trace row
    k, l, values = k.compress(keep), l.compress(keep), values.compress(keep)
    trace = _adapted_trace(image, sign, d)
    s = max(1.0, largest)
    try:
        order, factors = _triangularize_by_levels(k, l, values, trace, s)
        del k, l, values  # B' is in the factors now
        trace = trace[order]
        bounds = np.cumsum([0] + [len(fac) for fac in factors] + [0])
        gram, z = np.zeros((1, 1)), np.zeros(1)  # of Z_{k+1}, and [x_{k+1}; x_{k+2}; trace . x]
        total, column = 0.0, np.empty(n)
        for depth in range(len(factors) - 1, -1, -1):
            start, stop, ahead = bounds[depth], bounds[depth + 1], bounds[depth + 2]
            fac, width, span = factors.pop(), stop - start, len(gram)
            p = np.linalg.inv(fac[:, :width])
            a = -p @ fac[:, width:width + span]
            h = a @ gram
            own = p @ p.T + h @ a.T  # X_k X_k^T
            total += np.trace(own)
            column[start:stop] = p @ fac[:, -1] + a @ z
            # Z_k = [X_k; X_{k+1}; tau_{k+2}], where tau_{k+2} = u^T Z_{k+1}
            near = ahead - stop
            u = np.concatenate([np.zeros(near), trace[ahead:ahead + span - 1 - near], [1.0]])
            gu, hu = gram @ u, h @ u
            grown = np.empty((width + near + 1,) * 2)  # G_k, written by blocks
            grown[:width, :width] = own
            grown[:width, width:-1], grown[width:-1, :width] = h[:, :near], h[:, :near].T
            grown[width:-1, width:-1] = gram[:near, :near]
            grown[:width, -1] = grown[-1, :width] = hu
            grown[width:-1, -1] = grown[-1, width:-1] = gu[:near]
            grown[-1, -1] = u @ gu
            gram = grown
            z = np.concatenate([column[start:stop], z[:near], [u @ z]])
    except np.linalg.LinAlgError:
        return np.zeros(n), 0.0
    total += (1 - (1 / s) ** 2) * np.vdot(column, column)
    adapted = np.empty(n)
    adapted[order] = column
    return _exchange_rotation(adapted, image, sign, back=True), 1.0 / np.sqrt(total) if total > 0 else 0.0


def _adapted_trace(image: np.ndarray, sign: np.ndarray, d: int) -> np.ndarray:
    """Tr of each column of O, O^T t for the trace row t: a population's orbit is populations
    of sign 1, so sqrt(2) at an even pair of them, 1 at a fixed one, 0 elsewhere."""
    return _exchange_rotation((np.arange(len(image)) < d) * 1.0, image, sign, back=False)


def _triangularize_by_levels(k: np.ndarray, l: np.ndarray, values: np.ndarray, trace: np.ndarray,
                             s: float) -> tuple[np.ndarray, list]:
    """DB = QR by Householder elimination level by level: the coordinates in level order, and R.

    (k, l, values) are B's nonzero entries below row 0, and trace is row 0,
    the trace row (_solve_by_levels). In the order of _levels, B is block
    tridiagonal apart from the trace row, which is level 0 alone; D scales
    that row by s, as a reflection loses a row far smaller than the rows it
    mixes it with. A part of B's pattern that the search from coordinate 0
    does not reach, such as the odd sector of an exchange-symmetric L,
    follows in levels of its own, so its steps are as narrow as its levels.
    Step k takes the rows carried from step k - 1 and level k + 1's rows of
    B, the only rows left with entries in level k's columns, and eliminates
    level k's columns alone, by blocked Householder QR with compact-WY
    updates (_eliminate): reflections pivot across both levels without
    choosing pivots. The first rows are level k's rows of R, nonzero only at
    levels k, k + 1 and k + 2, and the rest are carried as they are, not
    triangular, since step k + 1 factors them anyway. The trace row is carried
    through every step as a coefficient f in each row, whose entries beyond
    level k + 2 are f times the trace row's, and the right-hand side D e_0
    as c = Q^T D e_0. Level k's block row of R is kept as
    [R_kk | R_k,k+1 | R_k,k+2 | f_k | c_k].
    """
    n = len(trace)
    level = _levels(k, l, n)
    order = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[order], np.arange(level.max() + 4))  # and two empty levels
    where = np.empty(n, dtype=int)
    where[order] = np.arange(n)
    # the entries by the level of their row, in any order within a level, as each has its own place
    by_row = np.argsort(level[k])  # not stable: 0.04 against 0.07 ms at side 784
    split = np.searchsorted(level[k[by_row]], np.arange(len(bounds)))
    k, l, values = where[k[by_row]], where[l[by_row]], values[by_row]
    trace = trace[order]  # row 0 of B in level order
    carried = s * np.concatenate([trace[:bounds[2]], [1.0, 1.0]])[None]  # row 0 of DB: f = c = s
    factors = []
    for depth in range(len(bounds) - 3):
        start, stop, ahead, end = bounds[depth:depth + 4]
        panel = np.zeros((len(carried) + ahead - stop, end - start + 2))
        panel[:len(carried), :ahead - start] = carried[:, :-2]
        panel[:len(carried), ahead - start:end - start] = carried[:, -2, None] * trace[ahead:end]
        panel[:len(carried), -2:] = carried[:, -2:]
        mine = slice(split[depth + 1], split[depth + 2])
        panel[len(carried) + k[mine] - stop, l[mine] - start] = values[mine]
        width = stop - start
        _eliminate(panel, width)
        factors.append(panel[:width].copy())
        carried = panel[width:, width:].copy()
        del panel  # each step's temporaries are freed before the next step's
    return order, factors


def _eliminate(panel: np.ndarray, width: int) -> None:
    """Q^T panel in place, for Householder QR of panel's first width columns, BLOCK at a time.

    Those columns become R, zero below its diagonal; the columns after them
    become Q^T times theirs, their rows from width on left full. A block's
    reflectors H_i = I - tau_i v_i v_i^T, those with tau_i = 0 (the
    identity) left out, make Q_b = I - V T V^T (compact WY; Schreiber and
    Van Loan, SIAM J. Sci. Stat. Comput. 10, 53 (1989)), with
    T^-1 = diag(1/tau) + striu(V^T V) (Joffrain, Low, Quintana-Orti and van
    de Geijn, ACM TOMS 32, 169 (2006)), so Q_b^T reaches the columns after
    the block by three matrix products.
    """
    for first in range(0, width, BLOCK):
        last = min(width, first + BLOCK)
        rows = panel[first:]
        h, tau = np.linalg.qr(rows[:, first:last], mode="raw")
        h = h.T  # R above the diagonal, the reflectors below
        rows[:, first:last] = np.triu(h)
        v = np.tril(h, -1)
        np.fill_diagonal(v, 1.0)
        v, tau = v[:, tau != 0], tau[tau != 0]
        t = np.linalg.inv(np.diag(1.0 / tau) + np.triu(v.T @ v, 1))
        rest = rows[:, last:]
        rest -= v @ (t.T @ (v.T @ rest))


def _held_matrices(coords: np.ndarray, held: np.ndarray, image: np.ndarray, sign: np.ndarray,
                   d: int) -> np.ndarray:
    """The (N, d, d) matrices of N states from their exchange-adapted coordinates at held, 0 elsewhere."""
    full = np.zeros((len(coords), d * d))
    full[:, held] = coords
    return _from_coordinates(_exchange_rotation(full, image, sign, back=True), d)


def _row_traces(coords: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """coords @ trace along the last axis, added column by column over trace's nonzeros from 0.

    Elementwise, so a row's bits do not depend on the rows beside it, as a
    gemv's may; and at a batch of 4,096 rows of 10 with 3 nonzeros, 19
    against 127 us for (coords * trace).sum(axis=1) (2 CPUs).
    """
    total = np.zeros(coords.shape[:-1])
    for k in np.flatnonzero(trace):
        total += trace[k] * coords[..., k]
    return total


def _step_powers(increment: np.ndarray, count: int) -> np.ndarray:
    """X_j = P^j - I for j = 1..count, from X_1 = P - I, by X_{m+j} = X_m + X_j + X_m X_j.

    P^j itself is never formed, so no X_j is rounded against the identity.
    """
    powers = np.empty((count,) + increment.shape)
    powers[0] = increment
    done = 1
    while done < count:
        k = min(done, count - done)
        last = powers[done - 1]
        powers[done:done + k] = last + powers[:k] + last @ powers[:k]
        done += k
    return powers


def _batches(increment: np.ndarray, r: np.ndarray, nsteps: int, strides: int):
    """The states after steps 1..nsteps of r -> r + increment r, ``strides`` strides of STRIDE a batch.

    Yields (start, states) for the steps from start + 1: states is a
    (strides, S, w) view, fewer strides at the end of a super-stride or of
    the run, that the next batch overwrites, with state start + b S + j at
    [b, j - 1]. A batch's anchors are a slice of the super-stride's. The two
    doubling levels, X_j = P^j - I and Y_b = P^(bS) - I, are evolve's. A
    one-row product is a gemv, whose bits differ from gemm's (numpy 2.4,
    OpenBLAS), so a batch's product always takes at least two rows, and the
    anchors' product always has one shape: no bit depends on the batch size
    or on the length of the run.
    """
    w = len(r)
    # Y_1 .. Y_S side by side, (w, S w), and X_1 .. X_S as (w, w S), by coordinate and then j: a
    # super-anchor's anchors, or a stride's states by coordinate, are one row of a product with them
    powers = _step_powers(increment, STRIDE)
    lift = np.ascontiguousarray(_step_powers(powers[-1], STRIDE).reshape(STRIDE * w, w).T)
    powers = np.ascontiguousarray(powers.transpose(2, 1, 0)).reshape(w, w * STRIDE)
    batch = np.empty((max(2, min(strides, STRIDE)), w, STRIDE))
    ring = np.empty((STRIDE + 1, w))  # one super-stride's anchors, then the next super-anchor
    ring[-1], start = r, 0
    while start < nsteps:
        at = start // STRIDE % STRIDE  # the place in ring of the batch's first anchor
        if at == 0:  # the next super-stride, from R_{c+1} = ring[-1]
            ring[0] = ring[-1]
            np.matmul(ring[0], lift, out=ring[1:].reshape(-1))
            ring[1:] += ring[0]
        count = min(strides, STRIDE - at, (nsteps - start - 1) // STRIDE + 1)  # to the edge or the end
        rows = max(2, count)  # at = S - 1 still has ring[S] = R_{c+1} for its second row
        np.matmul(ring[at:at + rows], powers, out=batch[:rows].reshape(rows, -1))  # X_j r_{bS}, j = 1..S
        batch[:count] += ring[at:at + count, :, None]  # one add a batch
        yield start, batch[:count].swapaxes(1, 2)
        start += STRIDE * count


def evolve(m: LindbladModel, rho0: DensityMatrix, t_final: float, dt: float = DEFAULT_DT,
           sample_every: int | None = None) -> tuple[np.ndarray, DensityMatrix, np.ndarray]:
    """Propagate rho0 with fixed-step fourth-order Runge-Kutta; return (steps, rho, drift).

    For the linear equation d vec(rho)/dt = L vec(rho), one RK4 step is
    exactly the matrix P = sum_{k<=4} (dt L)^k / k!. It is formed once, in
    real arithmetic, from L in a real orthonormal basis of Hermitian
    matrices (_real_form), so the state stays Hermitian by construction,
    rotated into the exchange-adapted basis (_to_exchange_basis). There P
    falls into the parts of L's pattern, each pair followed both ways
    (_reached), and the state never leaves the parts that rho0's
    coordinates hold: RK4 steps only those, with P's block on them. The
    reduced model commutes with the qubit swap bit for bit, so from |gg> it
    steps the 10 exchange-even coordinates of 16, and the 6 odd ones stay 0
    exactly; a general rho0, or a model that breaks the swap, steps all of
    them, by the same code. The spectral radius is still read from all of
    P: a sector the state never enters is unstable at the same dt (at
    (10, 2.135) and dt = 0.14 the odd block has radius 1.27 and the even
    one 1.0), so such a dt is refused whatever rho0.
    The increment X_1 = P - I is kept apart from the identity: rounding P
    itself would move its fixed point by about 1e-16 / (dt * gap of L),
    1e-12 at dt = 1e-3. The run is stepped in two doubling levels
    (_batches): X_j = P^j - I for j = 1..STRIDE from X_1, and
    Y_b = P^(bS) - I for b = 1..S from X_S, 2 S w^2 floats for w stepped
    coordinates, never P^j itself. Only the super-anchors, every S^2-th
    state (16,384 steps), are stepped in order, R_{c+1} = R_c + Y_S R_c;
    a super-stride's anchors, every S-th state, are r_{bS} = R_c + Y_b R_c,
    one product of R_c with the stacked Y_b, and a batch's states are
    r_{bS+j} = r_{bS} + X_j r_{bS}, one product of its anchors with the
    stacked X_j, of at least two rows. So a state does not depend on the
    batch size or on the length of the run, and a run is a prefix of any
    longer one bit for bit. A batch is at most one block of DensityMatrix's
    check (qops.CHECK_ELEMENTS entries, read at each call: 32 strides of 4x4
    states) and stops at its super-stride's edge. Each sample's coordinates
    wait in the first floats of its own matrix, and become the matrices one
    such block of samples at a time (one block for the CLI's 501), so memory
    beyond the samples and the drift does not grow with the run. The trace
    of every step, read from the stepped coordinates, is checked and never
    renormalized; drift beyond DRIFT_ABORT, or a NaN trace, aborts the run
    at the first failing step. A spectral radius of P above 1 +
    STABILITY_SLACK aborts it before the first step, as the drift shows a
    growing mode only after a growth of ~1e10. The run takes round(t_final
    / dt) steps, at least one when t_final > 0; a stacked m or rho0, a
    non-finite t_final or t_final / dt, a step count too large to allocate,
    dt <= 0 or sample_every < 1 raises ValueError. ``steps`` is 0, k, 2k,
    ... and the last step for k = sample_every (0 and the last step for
    None or k beyond the run), ``rho`` the stack of the states there, rho0
    first, and ``drift`` |Tr rho - 1| after every step, step 0 first. RK4
    does not keep positivity: the samples are checked as one DensityMatrix,
    which keeps their stack uncopied, and the first that is not a density
    matrix, steps[exc.index], raises an IntegrationError that names its t,
    its reason and dt.
    """
    for what, stack in (("model", m.hamiltonian), ("initial state", rho0.matrix)):
        if stack.ndim > 2:
            raise ValueError(f"evolve takes one {what}, not a stack of {len(stack)}")
    if rho0.space.dims != m.space.dims:
        raise ValueError("initial state lives on a different space than the model")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    ratio = float(t_final) / float(dt)  # Python floats overflow to inf without a warning
    if not np.isfinite(ratio):
        raise ValueError(f"the step count t_final / dt must be finite, got {t_final:g} / {dt:g} = {ratio:g}")
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    d = m.space.dim
    n = d * d
    image, sign = _exchange(m.space)
    k, l, entries, _ = _real_form(build_liouvillian(m))
    k, l, entries = _to_exchange_basis(k, l, entries[0], image, sign)
    a = np.zeros((n, n))
    a[k, l] = dt * entries
    eye = np.eye(n)
    increment = a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))  # P - I
    finite = np.isfinite(increment).all()  # a non-finite P is left to the trace check
    # every sector's radius: an unstable one that rho0 never enters still means dt is too large
    radius = np.abs(np.linalg.eigvals(eye + increment)).max() if finite else 1.0
    if radius > 1.0 + STABILITY_SLACK:
        raise IntegrationError(f"RK4 step spectral radius {radius:.6g} > 1; reduce dt below {dt:g}")
    owners, _, values = _owners(d)  # r = Re(U^dagger vec rho0), the adjoint of _from_coordinates
    weights = (values.conj() * rho0.matrix.ravel(order="F")[:, None]).real
    r = _exchange_rotation(np.bincount(owners.ravel(), weights.ravel(), minlength=n), image, sign, back=False)
    held = np.flatnonzero(_reached(a, r != 0))  # the coordinates that ever move
    increment, r = increment[np.ix_(held, held)], r[held]
    trace = _adapted_trace(image, sign, d)[held]
    nsteps = max(1, int(round(ratio))) if t_final > 0 else 0
    every = min(sample_every or nsteps, nsteps) or 1  # np.arange takes no step beyond int64
    try:  # a finite step count can still be more than an array holds
        steps = np.append(np.arange(0, nsteps, every), nsteps)
        drift, mats = np.empty(nsteps + 1), np.empty((len(steps), d, d), dtype=complex)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"the step count t_final / dt = {t_final:g} / {dt:g} = {nsteps:.6g} "
                         f"is too large to allocate ({exc})") from exc
    drift[0] = abs(_row_traces(r, trace) - 1.0)
    strides = min(max(1, qops.CHECK_ELEMENTS // (STRIDE * n)), nsteps // STRIDE + 1)  # per batch
    block = min(len(steps), max(1, qops.CHECK_ELEMENTS // n))  # samples made matrices at a time
    # each sample waits in the first floats of its own matrix: w <= d^2 < 2 d^2
    coords = mats.view(float).reshape(len(steps), -1)[:, :len(held)]
    coords[0] = r
    for start, states in _batches(increment, r, nsteps, strides):  # steps start + 1 .. stop
        stop = min(nsteps, start + STRIDE * len(states))
        drift[start + 1:stop + 1] = abs(_row_traces(states, trace).reshape(-1)[:stop - start] - 1.0)
        # "not <=" instead of ">" so a NaN trace (overflowed state) also aborts
        lost = ~(drift[start + 1:stop + 1] <= DRIFT_ABORT)
        if lost.any():
            step = start + 1 + int(np.argmax(lost))
            raise IntegrationError(
                f"trace drift {drift[step]:.3e} at t = {step * dt:.6g} exceeds "
                f"{DRIFT_ABORT:g}; reduce dt below {dt:g}"
            )
        first, last = np.searchsorted(steps, [start + 1, stop + 1])
        index = steps[first:last] - start - 1
        coords[first:last] = states[index // STRIDE, index % STRIDE]
    states = None  # the last batch, gone before the matrices' temporaries come
    for i in range(0, len(steps), block):
        # _held_matrices copies a block's coordinates before its matrices overwrite them
        mats[i:i + block] = _held_matrices(coords[i:i + block], held, image, sign, d)
    mats.setflags(write=False)  # handed over to DensityMatrix, which keeps it uncopied
    try:
        return steps, DensityMatrix(m.space, mats), drift
    except InvalidStateError as exc:  # a stable step can still overshoot a fast transient
        raise IntegrationError(f"state at t = {steps[exc.index] * dt:.6g} is not a density matrix "
                               f"({exc.reason}); reduce dt below {dt:g}") from exc
