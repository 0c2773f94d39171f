"""The whole inverse in the plain Hermitian basis, for tests only.

steady_state inverts B part by part in the exchange-adapted basis
(lindblad._solve_whole); plain_whole is the route it replaced, B bordered
with the trace row in the basis of lindblad._owners and inverted whole,
which the tests check the sector route against.
"""

import numpy as np

from polent import lindblad


def plain_whole(liouv) -> tuple[np.ndarray, np.ndarray]:
    """Column 0 of each B^-1 and 1/||B^-1||_F, for one Liouvillian or a stack, each B inverted whole."""
    d = liouv.space.dim
    k, l, entries, _ = lindblad._real_form(liouv)
    bordered = np.zeros((len(entries), d * d, d * d))
    bordered[:, k, l] = entries
    bordered[:, 0] = np.arange(d * d) < d  # Tr B_k in place of the first population's row
    inverse = np.linalg.inv(bordered)
    return inverse[..., 0], 1.0 / np.sqrt(np.einsum("kij,kij->k", inverse, inverse))
