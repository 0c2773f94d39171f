"""Liouvillian assembly, steady-state solving, and fixed-step time evolution.

The stationarity of any state is judged here only, as ||L vec(rho)|| with
the Liouvillian built from the model (stationarity_residuals); the
closed-form and numeric routes are both checked against it. The solves and
RK4 read L only through _real_form, in the Hermitian basis of _owners.
steady_state has one route per input, by L's size (LEVEL_SIDE): levels from
side 784 on, a whole inverse below it (0.34 against 0.99 ms at side 16) and
for every stack. There is no fallback: a result that fails its checks raises.

Vectorization is column-stacking: vec(A rho B) = (B^T kron A) vec(rho), with
vec(rho) = rho.ravel(order="F"). With A = -iH - 1/2 sum_j J_j^dagger J_j, the
Liouvillian is

    L = I kron A + conj(A) kron I + sum_j conj(J_j) kron J_j,

because -i[H, rho] - 1/2 {J^dagger J, rho} = A rho + rho A^dagger for Hermitian
H and J^dagger J. build_liouvillian writes the Kronecker sum into the
diagonal blocks of one zero matrix and adds each conj(J) kron J only at the
products of J's nonzero entries, so no dense Kronecker product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DimensionlessParams, LindbladModel, build_effective_model
from .qops import TWO_QUBITS, DensityMatrix, HilbertSpace, InvalidStateError

GAP_FLOOR = 1e-8
RESIDUAL_TOL = 1e-9
DRIFT_ABORT = 1e-6
STABILITY_SLACK = 1e-9
DEFAULT_DT = 1e-3
# evolve's steps per anchor, and strides checked per batch: 4,096 states, a
# working set of 0.8 MB at d = 4 that does not grow with the run
STRIDE = 128
STRIDE_BATCH = 32
# steady_state solves one L of at least this side (full model, n_max >= 6) by
# levels, and a smaller one whole. Whole inverse against levels, best of 9 in
# one process on 2 CPUs (OpenBLAS): 0.34 / 0.99 ms at side 16, 0.76 / 2.3 at 64,
# 1.9 / 3.9 at 144, 13.7 / 18 at 400, 48 / 43 at 784 and 168 / 90 at 1296
LEVEL_SIDE = 784


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional within tolerance."""


class IntegrationError(Exception):
    """The fixed-step integrator went unstable, lost the trace or left the density matrices."""


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Superoperator matrix acting on column-stacked density matrices.

    ``matrix`` is one (d^2, d^2) matrix or a stack of them along a leading axis.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        d = self.space.dim
        m = np.array(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (d * d, d * d):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {d}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    """Steady state with its defect norm and a certified uniqueness gap.

    residual is ||L vec(rho)||_2; gap is a certified lower bound on the second-smallest
    singular value of L. For a stack, rho is a stack and residual and gap are arrays.
    """

    rho: DensityMatrix
    residual: float | np.ndarray
    gap: float | np.ndarray


def _kronecker_sum(a: np.ndarray) -> np.ndarray:
    """I kron A + conj(A) kron I, written into one new zero matrix.

    In the (d, d, d, d) view of L, I kron A is A on the blocks [i, :, i, :]
    and conj(A) kron I is conj(A) on [:, k, :, k]; both are writable
    diagonal views, so only the (d^2, d^2) result is allocated.
    """
    d = a.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    blocks = out.reshape(d, d, d, d)
    np.einsum("ikil->ikl", blocks)[...] += a
    np.einsum("ikjk->kij", blocks)[...] += a.conj()
    return out


def build_liouvillian(m: LindbladModel) -> Liouvillian:
    """Assemble -i[H, .] plus the jump dissipators as one superoperator matrix.

    Each conj(J) kron J is added at the products of J's nonzero entries
    only; these positions are distinct, so one fancy-indexed += adds each
    product once, and a dense J gives the terms of np.kron.
    """
    d = m.space.dim
    a = -1j * m.hamiltonian
    for jump in m.jumps:
        a -= 0.5 * (jump.conj().T @ jump)
    mat = _kronecker_sum(a)
    for jump in m.jumps:
        rows, cols = np.nonzero(jump)
        values = jump[rows, cols]
        mat[rows[:, None] * d + rows, cols[:, None] * d + cols] += values.conj()[:, None] * values
    return Liouvillian(m.space, mat)


def effective_basis() -> np.ndarray:
    """(L0, Lz, Lx1, Lx2): the reduced model's Liouvillian is L0 + zeta Lz + xi1 Lx1 + xi2 Lx2.

    L0 is build_liouvillian of the undriven, uncoupled model; each other
    term is -i[H, .], the Kronecker sum of -iH, with the model's Hamiltonian
    at one unit parameter, so build_effective_model stays the only source of
    the model and both share build_liouvillian's assembly.
    Each entry of L depends on at most one parameter, so the affine sum
    equals build_liouvillian at every point bit for bit.
    """
    base = build_liouvillian(build_effective_model(DimensionlessParams(0.0, 0.0))).matrix
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return np.stack([base] + [
        _kronecker_sum(-1j * build_effective_model(DimensionlessParams(*u)).hamiltonian)
        for u in units
    ])


def effective_liouvillians(basis: np.ndarray, zeta, xi1, xi2) -> Liouvillian:
    """Stacked reduced-model Liouvillians at arrays of (zeta, xi1, xi2), from effective_basis()."""
    l0, lz, lx1, lx2 = basis

    def column(v):
        return np.asarray(v, dtype=float)[:, None, None]

    return Liouvillian(TWO_QUBITS, l0 + column(zeta) * lz + column(xi1) * lx1 + column(xi2) * lx2)


def steady_state(liouv: Liouvillian) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with Tr rho = 1, for one Liouvillian or a stack.

    B is L in a real orthonormal basis of Hermitian matrices with the trace
    condition in place of the first population row (the direct method of
    QuTiP; Johansson, Nation and Nori, CPC 183, 1760 (2012)). Column 0 of
    B^-1 gives rho, Hermitian by construction; gap = 1/||B^-1||_F <=
    sigma_min(B) <= sigma_{n-1}(L), as B - L has rank one (Horn and Johnson,
    Topics in Matrix Analysis, Thm 3.3.16). B's entries are read once
    (_real_form). One Liouvillian of side LEVEL_SIDE (784) or more is
    triangularized level by level (_solve_by_levels), the same column and
    norm without forming B or B^-1, in 43 against 48 ms at 784; every stack,
    and a smaller Liouvillian as a stack of one, is inverted whole in one
    batch, 13.7 against 18 ms at 400. There is no fallback: a result raises
    DegenerateSteadyStateError when gap <= GAP_FLOOR, and when the residual
    exceeds RESIDUAL_TOL times the largest entry of L (at least 1), so that
    c L gives the state of L at every scale c; a stack names its first failure.
    """
    d = liouv.space.dim
    k, l, entries, largest = _real_form(liouv.matrix, d)
    if liouv.matrix.ndim == 2 and d * d >= LEVEL_SIDE:
        coords, gap = _solve_by_levels(k, l, entries[0], d, largest[0])
        coords, gaps = coords[None], np.array([gap])
    else:
        bordered = np.zeros((len(entries), d * d, d * d))
        bordered[:, k, l] = entries
        bordered[:, 0] = np.arange(d * d) < d  # Tr B_k in place of the first population's row
        inverse = _inverse(bordered)
        coords, gaps = inverse[..., 0], 1.0 / np.sqrt(np.einsum("kij,kij->k", inverse, inverse))
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
    if liouv.matrix.ndim == 2:
        mats, residuals, gaps = mats[0], float(residuals[0]), float(gaps[0])
    return SteadyStateResult(DensityMatrix(liouv.space, mats), residuals, gaps)


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
    it, and the closed form is checked with it against the same L.
    """
    d = liouv.space.dim
    lm = liouv.matrix.reshape(-1, d * d, d * d)
    rho = np.asarray(states).reshape(-1, d, d)
    vecs = rho.swapaxes(-1, -2).reshape(len(lm), d * d, 1)  # column-stacked
    defect = (lm @ vecs)[..., 0]
    # an exact power-of-two scaling before squaring keeps a finite defect's norm finite
    exponent = np.frexp(np.maximum(abs(defect.real), abs(defect.imag)).max(axis=-1))[1]
    re, im = (np.ldexp(part, -exponent[:, None]) for part in (defect.real, defect.imag))
    return np.ldexp(np.sqrt((re**2 + im**2).sum(axis=-1)), exponent)


def _which(k: int, n: int) -> str:
    return f" (Liouvillian {k} of a stack of {n})" if n > 1 else ""


def _owners(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis B_k: the two coordinates owning each vec index, their units and their values.

    The B_k are an orthonormal basis of Hermitian d x d matrices, so real
    coordinates give Hermitian matrices: E_ii for k < d, then
    (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2) for i < j. All three
    are (d^2, 2); a value is its unit times 1 (k < d) or 1/sqrt(2). The pair
    i < j owns (i, j) with units (1, i) and (j, i) with units (1, -i), in
    its real and imaginary coordinates; E_ii owns (i, i) with unit 1, and
    its second slot repeats it with unit 0.
    """
    i, j, diag = *np.triu_indices(d, 1), np.arange(d)
    owners = np.empty((d, d, 2), dtype=int)
    units = np.zeros((d, d, 2), dtype=complex)
    owners[diag, diag], units[diag, diag, 0] = diag[:, None], 1.0
    owners[i, j] = owners[j, i] = d + np.arange(len(i))[:, None] + [0, len(i)]
    units[i, j], units[j, i] = (1.0, 1j), (1.0, -1j)
    # entry (i, j) has vec index i + j d
    owners, units = owners.swapaxes(0, 1).reshape(d * d, 2), units.swapaxes(0, 1).reshape(d * d, 2)
    return owners, units, units * np.where(owners < d, 1.0, 1.0 / np.sqrt(2.0))


def _from_coordinates(r: np.ndarray, d: int) -> np.ndarray:
    """sum_k r_k B_k, as (N, d, d) matrices, for each row r of an (N, d^2) array of coordinates."""
    owners, _, values = _owners(d)
    # a new C-ordered array whatever r's layout, so a row's matrix lies alike in any stack
    vecs = np.ascontiguousarray((r[:, owners] * values).sum(axis=-1))
    return vecs.reshape(len(r), d, d).swapaxes(-1, -2)  # vec is column-stacking


def _real_form(lm: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L in the basis of _owners, Re(U^dagger L U) with vec(B_k) in column k of U; and max|L_ij|.

    For one L or an (N, d^2, d^2) stack: the rows k and columns l of the
    entries on the union of the nonzero patterns, an (N, len(k)) array of
    their values, and each L's largest |L_ij|. An entry is a +-sum of real
    or imaginary parts of up to four entries of L, exact, scaled once by 1,
    1/sqrt(2) or 1/2: scaling first would leave rounding of the largest
    entries (1e183 at zeta 1e200) where they cancel.
    """
    n = d * d
    lm = lm.reshape(-1, n * n)
    nonzero = lm.view(float) != 0  # a third of the cost of lm != 0
    flat = np.flatnonzero(nonzero.any(axis=0) if len(lm) > 1 else nonzero) // 2
    del nonzero  # a quarter of a real n^2 matrix for one L: the largest array here
    flat = flat[np.diff(flat, prepend=-1) != 0]
    rows, cols = np.divmod(flat, n)
    owners, units, _ = _owners(d)
    first, second = [0, 0, 1, 1], [0, 1, 0, 1]
    keys = (owners[rows][:, first] * n + owners[cols][:, second]).ravel()
    unit = (units[rows][:, first].conj() * units[cols][:, second]).ravel()  # 0, +-1 or +-i
    live = np.flatnonzero(unit)  # a zero unit adds nothing
    live = live[np.argsort(keys[live], kind="stable")]  # each entry's parts together, in order
    keys, unit = keys[live], unit[live]
    new = np.diff(keys, prepend=-1) != 0
    starts, entry = np.flatnonzero(new), np.cumsum(new) - 1
    # an entry's parts are summed in order, as layers; a shorter entry's last are 0 L_00
    layer = np.arange(len(keys)) - starts[entry]
    pick = np.zeros((layer.max(initial=0) + 1, len(starts)), dtype=int)
    sign = np.zeros(pick.shape)
    # Re(unit L_ij) is +-Re L_ij or +-Im L_ij: L's float 2 (i n + j) or the next, times a sign
    pick[layer, entry] = 2 * flat[live // 4] + (unit.imag != 0)
    sign[layer, entry] = unit.real - unit.imag
    k, l = np.divmod(keys[starts], n)
    scale = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])  # |a_k a_l| by the off-diagonal units
    entries = (lm.view(float)[:, pick] * sign).sum(axis=1)
    entries *= scale[(k >= d).astype(int) + (l >= d)]
    return k, l, entries, np.abs(lm[:, flat]).max(axis=-1, initial=0.0)


def _levels(k: np.ndarray, l: np.ndarray, n: int) -> np.ndarray:
    """Breadth-first level of each of n coordinates over the pattern (k, l), rooted at 0.

    The search follows each pair both ways, so an edge joins levels that
    differ by at most 1. A part of the pattern the search does not reach
    gets its own levels after the last one, from its smallest coordinate.
    """
    edges = np.sort(np.concatenate([k * n + l, l * n + k]))
    source, target = np.divmod(edges, n)
    first = np.searchsorted(source, np.arange(n + 1))
    level = np.full(n, -1)
    depth, front = 0, np.zeros(0, dtype=int)
    while (level < 0).any():
        if not len(front):
            front = np.flatnonzero(level < 0)[:1]
        level[front] = depth
        depth += 1
        counts = first[front + 1] - first[front]
        reach = np.repeat(first[front] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        front = np.unique(target[reach])
        front = front[level[front] < 0]
    return level


def _solve_by_levels(k: np.ndarray, l: np.ndarray, values: np.ndarray, d: int,
                     largest: float) -> tuple[np.ndarray, float]:
    """Column 0 of B^-1 and 1/||B^-1||_F, level by level, from one L's _real_form and max|L_ij|.

    _triangularize_by_levels gives DB = QR, Q orthogonal and D the identity
    but for D_00 = s. So B^-1 = R^-1 Q^T D: its column 0 is x = R^-1 c, with
    c = Q^T D e_0, its other columns are those of R^-1 Q^T, and
    ||B^-1||_F^2 = ||R^-1||_F^2 + (1 - 1/s^2) ||x||^2. R^-1's rows at level k
    are X_k = P_k E_k + A_k Z_{k+1}, with P_k = R_kk^-1, E_k the identity's
    rows, A_k = -P_k [R_k,k+1 | R_k,k+2 | f_k] and Z_{k+1} the rows
    [X_{k+1}; X_{k+2}; tau_{k+3}], tau_{k+3} being the trace row times R^-1's
    rows from level k + 3 on. Z_{k+1} is zero in level k's columns, where
    E_k lives, so X_k X_k^T = P_k P_k^T + A_k G_{k+1} A_k^T and the Gram
    matrix G_k = Z_k Z_k^T follows from G_{k+1} alone. Summing the traces
    from the last level to the root gives ||R^-1||_F^2 from blocks of the
    levels' sizes, and x is back-substituted alongside. R^-1 and B^-1 are
    never formed. An exactly singular block, or a failed LAPACK call on a
    non-finite one, gives gap 0.
    """
    n = d * d
    keep = (k != 0) & (values != 0)  # row 0 of B is the trace row
    k, l, values = k[keep], l[keep], values[keep]
    s = max(1.0, largest)
    try:
        order, factors = _triangularize_by_levels(k, l, values, d, s)
        del k, l, values  # B is in the factors now
        trace = (order < d).astype(float)
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
            gram = np.block([[own, h[:, :near], hu[:, None]],
                             [h[:, :near].T, gram[:near, :near], gu[:near, None]],
                             [hu[None], gu[None, :near], np.array([[u @ gu]])]])
            z = np.concatenate([column[start:stop], z[:near], [u @ z]])
    except np.linalg.LinAlgError:
        return np.zeros(n), 0.0
    coords = np.empty(n)
    coords[order] = column
    total += (1 - (1 / s) ** 2) * np.vdot(column, column)
    return coords, 1.0 / np.sqrt(total) if total > 0 else 0.0


def _triangularize_by_levels(k: np.ndarray, l: np.ndarray, values: np.ndarray, d: int,
                             s: float) -> tuple[np.ndarray, list]:
    """DB = QR by Householder elimination level by level: the coordinates in level order, and R.

    (k, l, values) are B's nonzero entries below row 0 (_solve_by_levels).
    In the order of _levels, B is block tridiagonal apart from row 0, the
    trace row, which is level 0 alone; D scales that row by s, as a
    reflection loses a row far smaller than the rows it mixes it with. Step k takes
    the rows carried from step k - 1 and level k + 1's rows of B, the only
    rows left with entries in level k's columns, and triangularizes them
    (numpy's qr): reflections pivot across both levels without choosing
    pivots. The first rows are level k's rows of R, nonzero only at levels
    k, k + 1 and k + 2, and the rest are carried. The trace row is carried
    through every step as a coefficient f in each row, whose entries beyond
    level k + 2 are f times the trace row's, and the right-hand side D e_0
    as c = Q^T D e_0. Level k's block row of R is kept as
    [R_kk | R_k,k+1 | R_k,k+2 | f_k | c_k].
    """
    n = d * d
    level = _levels(k, l, n)
    order = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[order], np.arange(level.max() + 4))  # and two empty levels
    where = np.empty(n, dtype=int)
    where[order] = np.arange(n)
    by_row = np.argsort(where[k], kind="stable")
    k, l, values = where[k[by_row]], where[l[by_row]], values[by_row]
    split = np.searchsorted(k, bounds)
    trace = (order < d).astype(float)  # row 0 of B in level order: Tr B_k
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
        h = np.linalg.qr(panel, mode="raw")[0].T  # R above the diagonal, the reflectors below
        del panel  # each step's temporaries are freed before the next step's
        factors.append(np.triu(h[:stop - start]))
        carried = np.triu(h[stop - start:, stop - start:])
        del h
    return order, factors


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


def evolve(m: LindbladModel, rho0: DensityMatrix, t_final: float, dt: float = DEFAULT_DT,
           sample_every: int | None = None) -> tuple[np.ndarray, DensityMatrix, np.ndarray]:
    """Propagate rho0 with fixed-step fourth-order Runge-Kutta; return (steps, rho, drift).

    For the linear equation d vec(rho)/dt = L vec(rho), one RK4 step is
    exactly the matrix P = sum_{k<=4} (dt L)^k / k!. It is formed once, in
    real arithmetic, from L in a real orthonormal basis of Hermitian
    matrices (_real_form), so the state stays Hermitian by construction.
    The increment X_1 = P - I is kept apart from the identity: rounding P
    itself would move its fixed point by about 1e-16 / (dt * gap of L),
    1e-12 at dt = 1e-3. From it, X_j = P^j - I for j = 1..STRIDE are
    formed by doubling (_step_powers), STRIDE d^4 floats. Only the anchors,
    every STRIDE-th state, are stepped in order, r_{(b+1)S} = r_{bS} +
    X_S r_{bS}; the states between are r_{bS+j} = r_{bS} + X_j r_{bS}, all
    of a stride from one matrix-vector product with the stacked X_j. So a
    state does not depend on the length of the run, and a run is a prefix of
    any longer one bit for bit. The states are formed STRIDE_BATCH strides
    at a time, so memory beyond the samples and the drift does not grow
    with the run. The trace of every step is checked and never
    renormalized; drift beyond DRIFT_ABORT, or a NaN trace, aborts the run
    at the first failing step. A spectral radius of P above
    1 + STABILITY_SLACK aborts it before the first step, as the drift shows
    a growing mode only after a growth of ~1e10. The run takes
    round(t_final / dt) steps, at least one when t_final > 0; a non-finite
    t_final, dt <= 0 or sample_every < 1 raises ValueError. ``steps`` is 0,
    k, 2k, ... and the last step for k = sample_every (0 and the last step for
    None or k beyond the run), ``rho`` the stack of the states there, rho0
    first, and ``drift`` |Tr rho - 1| after every step, step 0 first. RK4
    does not keep positivity: a sample that is not a density matrix (checked
    in one batch) raises an IntegrationError that names its t and dt.
    """
    if rho0.space.dims != m.space.dims:
        raise ValueError("initial state lives on a different space than the model")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    d = m.space.dim
    n = d * d
    k, l, entries, _ = _real_form(build_liouvillian(m).matrix, d)
    a = np.zeros((n, n))
    a[k, l] = dt * entries[0]
    eye = np.eye(n)
    increment = a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))  # P - I
    finite = np.isfinite(increment).all()  # a non-finite P is left to the trace check
    radius = np.abs(np.linalg.eigvals(eye + increment)).max() if finite else 1.0
    if radius > 1.0 + STABILITY_SLACK:
        raise IntegrationError(f"RK4 step spectral radius {radius:.6g} > 1; reduce dt below {dt:g}")
    owners, _, values = _owners(d)  # r = Re(U^dagger vec rho0), the adjoint of _from_coordinates
    weights = (values.conj() * rho0.matrix.ravel(order="F")[:, None]).real
    r = np.bincount(owners.ravel(), weights.ravel(), minlength=n)
    nsteps = max(1, int(round(t_final / dt))) if t_final > 0 else 0
    every = min(sample_every or nsteps, nsteps) or 1  # np.arange takes no step beyond int64
    steps = np.append(np.arange(0, nsteps, every), nsteps)
    samples = np.empty((len(steps), n))
    samples[0] = r
    drift = np.empty(nsteps + 1)
    drift[0] = abs(r[:d].sum() - 1.0)
    powers = _step_powers(increment, STRIDE).reshape(STRIDE * n, n)
    span = STRIDE * min(STRIDE_BATCH, nsteps // STRIDE + 1)  # steps per batch
    batch = np.empty((span // STRIDE, STRIDE, n))
    for start in range(0, nsteps, span):  # steps start + 1 .. stop
        stop = min(nsteps, start + span)
        for stride in batch[:(stop - start - 1) // STRIDE + 1]:  # the strides that reach stop
            np.matmul(powers, r, out=stride.reshape(-1))  # X_j r for j = 1..STRIDE
            stride += r
            r = stride[-1].copy()
        coords = batch.reshape(-1, n)[:stop - start]
        drift[start + 1:stop + 1] = abs(coords[:, :d].sum(axis=1) - 1.0)
        # "not <=" instead of ">" so a NaN trace (overflowed state) also aborts
        lost = ~(drift[start + 1:stop + 1] <= DRIFT_ABORT)
        if lost.any():
            step = start + 1 + int(np.argmax(lost))
            raise IntegrationError(
                f"trace drift {drift[step]:.3e} at t = {step * dt:.6g} exceeds "
                f"{DRIFT_ABORT:g}; reduce dt below {dt:g}"
            )
        first, last = np.searchsorted(steps, [start + 1, stop + 1])
        samples[first:last] = coords[steps[first:last] - start - 1]
    mats = _from_coordinates(samples, d)  # elementwise, so row-independent
    try:
        return steps, DensityMatrix(m.space, mats), drift
    except InvalidStateError:  # a stable step can still overshoot a fast transient
        for step, mat in zip(steps, mats):  # the first failing sample, as in a run of one
            try:
                DensityMatrix(m.space, mat)
            except InvalidStateError as exc:
                raise IntegrationError(f"state at t = {step * dt:.6g} is not a density matrix "
                                       f"({exc}); reduce dt below {dt:g}") from exc
        raise
