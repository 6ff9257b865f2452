"""Golden-section search for the OPO's optimal general-dyne parameter.

A numerical cross-check of the closed form ``opo_zopt``: it minimizes the
determinant of the Riccati steady state over z at theta = 0, so it shares no
algebra with the closed form.
"""

import math

import numpy as np

from gaussdaemon import GeneralDyneSetting, OpoParams, monitored, opo_model, steady_state_conditional


def opo_zopt_numeric(params: OpoParams, *, z_floor: float = 1e-6, log_tol: float = 1e-6, n_scan: int = 9) -> float:
    """Golden-section minimum of det sigma_c^ss over log z in [log z_floor, 0].

    Meaningful for nu_in > 1; at nu_in = 1 every efficient setting purifies
    completely and the landscape is flat.
    """
    model = opo_model(params)

    def det_at(log_z: float) -> float:
        mm = monitored(model, GeneralDyneSetting(nu_m=1.0, theta_m=0.0, z_m=math.exp(log_z)))
        return float(np.linalg.det(steady_state_conditional(mm)))

    grid = np.linspace(math.log(z_floor), 0.0, n_scan)
    k = int(np.argmin([det_at(x) for x in grid]))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n_scan - 1)]

    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = det_at(x1), det_at(x2)
    while b - a > log_tol:
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = det_at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = det_at(x1)
    return math.exp(0.5 * (a + b))
