"""The level route's index passes as they were before the keyed reads: test references.

polent's _real_form, _to_exchange_basis and _levels group L's triplets by one
sort per pass and sum each entry by per-slot gathers. These are the earlier
versions, which sorted every part of every entry (_real_form) and grouped by
np.unique (_to_exchange_basis, and _levels once per level), and hand their
entries out in row-major order. The tests check that the new passes give the
same values at the same rows and columns, in whatever order they hand them
out, and the same levels, bit for bit, sign bits of zeros included.
"""

import numpy as np

from polent.lindblad import Liouvillian, _owners


def real_form(liouv: Liouvillian) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L in the basis of _owners, Re(U^dagger L U) with vec(B_k) in column k of U; and max|L_ij|.

    For one L or a stack: the rows k and columns l of the entries that L's
    nonzero pattern reaches, an (N, len(k)) array of their values, and each
    L's largest |L_ij|. An entry is a +-sum of real or imaginary parts of up
    to four entries of L, exact, scaled once by 1, 1/sqrt(2) or 1/2: scaling
    first would leave rounding of the largest entries (1e183 at zeta 1e200)
    where they cancel.
    """
    d = liouv.space.dim
    n = d * d
    rows, cols = liouv.rows, liouv.cols
    values = np.atleast_2d(liouv.values)
    owners, units, _ = _owners(d)
    first, second = [0, 0, 1, 1], [0, 1, 0, 1]
    keys = (owners[rows][:, first] * n + owners[cols][:, second]).ravel()
    unit = (units[rows][:, first].conj() * units[cols][:, second]).ravel()  # 0, +-1 or +-i
    live = np.flatnonzero(unit)  # a zero unit adds nothing
    # each entry's parts together, in order: the keys made unique by position sort as a stable sort
    live = live[np.argsort(keys[live] * len(live) + np.arange(len(live)))]
    keys, unit = keys[live], unit[live]
    new = np.diff(keys, prepend=-1) != 0
    starts, entry = np.flatnonzero(new), np.cumsum(new) - 1
    # an entry's parts are summed in order, as layers; a shorter entry's last add
    # 0 Re L_00 (the last float of parts), as when L was read dense, so no sign of zero moves
    layer = np.arange(len(keys)) - starts[entry]
    at_00 = len(rows) and rows[0] == cols[0] == 0
    parts = np.concatenate([values.view(float),
                            values[:, :1].real if at_00 else np.zeros((len(values), 1))], axis=1)
    pick = np.full((layer.max(initial=0) + 1, len(starts)), parts.shape[1] - 1)
    sign = np.zeros(pick.shape)
    # Re(unit L_ij) is +-Re L_ij or +-Im L_ij: float 2t or 2t + 1 of its triplet t, times a sign
    pick[layer, entry] = 2 * (live // 4) + (unit.imag != 0)
    sign[layer, entry] = unit.real - unit.imag
    k, l = np.divmod(keys[starts], n)
    scale = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])  # |a_k a_l| by the off-diagonal units
    entries = (parts[:, pick] * sign).sum(axis=1)
    entries *= scale[(k >= d).astype(int) + (l >= d)]
    return k, l, entries, np.abs(values).max(axis=-1, initial=0.0)


def levels(k: np.ndarray, l: np.ndarray, n: int) -> np.ndarray:
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


def to_exchange_basis(k: np.ndarray, l: np.ndarray, values: np.ndarray, image: np.ndarray,
                       sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O^T B O from B's triplets (k, l, values), O the exchange-adapted basis of (image, sign).

    O's columns are the even (e_k + s e_pi(k))/sqrt(2) at k and the odd
    (e_k - s e_pi(k))/sqrt(2) at pi(k) for each orbit k < pi(k) of _exchange,
    and e_k for a fixed k, which keeps the sector of its sign. Rows first,
    then columns: in one column, an orbit's rows a (at k) and b (at pi(k)),
    0 where absent, become a + s b and a - s b, and a fixed row stays. Each
    new entry is one add of two, so where B commutes with the exchange bit
    for bit, an entry across the sectors is x - x = 0 exactly. The entries
    are scaled once at the end, by 1, 1/sqrt(2) or 1/2.
    """
    n = len(image)
    for _ in range(2):  # the rows, then the columns: each pass leaves its output transposed
        low = np.minimum(k, image[k])
        groups, where = np.unique(low * n + l, return_inverse=True)
        first = k == low
        a, b = (np.bincount(where, np.where(mine, values, 0.0), len(groups)) for mine in (first, ~first))
        low, l = np.divmod(groups, n)
        high, s = image[low], sign[low]
        paired = high != low
        k, l = np.concatenate([l, l[paired]]), np.concatenate([low, high[paired]])
        values = np.concatenate([a + s * b, (a - s * b)[paired]])
    paired = image != np.arange(n)
    scale = np.array([1.0, 1.0 / np.sqrt(2.0), 0.5])  # |O_km O_lm'| by the orbits
    return k, l, values * scale[paired[k].astype(int) + paired[l]]
