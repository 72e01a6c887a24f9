"""The per-class lift, as a reference for `dixon._order_values`: every class
of order d inverts its own power-map columns (each distinct column once),
with no rational-class representatives and no Galois images.  It is the
lift the package made before each rational class took one inversion."""

import numpy as np

from charzero.cyclotomic import euler_phi, power_rows


def per_class_values(cd, mt) -> list[np.ndarray]:
    """values[k][chi]: the phi(d) coordinates in Z[zeta_d] of chi(g_k), d the
    order of g_k, from the multiplicities of the eigenvalues zeta_d^t at g_k
    by discrete Fourier inversion of chi(g_k^t) mod l, t < d."""
    l, m, tau = mt.l, cd.exponent, cd.num_classes
    values: list[np.ndarray] = [np.empty(0)] * tau
    for d in set(cd.rep_orders):
        ks = [k for k in range(tau) if cd.rep_orders[k] == d]
        t = np.arange(d)
        zd = pow(mt.z, m // d, l)
        Vinv = np.array([pow(zd, -int(s), l) for s in range(d)])[np.outer(t, t) % d] * pow(d, -1, l) % l
        seen: dict[bytes, int] = {}  # power-map column -> its index among the distinct ones
        columns = np.vstack([mt.rows[:, cd.power_map[k]] for k in ks])
        back = np.array([seen.setdefault(c.tobytes(), len(seen)) for c in columns])
        X = columns[np.unique(back, return_index=True)[1]]  # each distinct column's first row
        MU = Vinv @ X.T % l
        phi = euler_phi(d)
        C = MU[:phi].T + MU[phi:].T @ power_rows(d, range(phi, d))
        for j, k in enumerate(ks):
            values[k] = C[back[j * tau : (j + 1) * tau]]
    return values
