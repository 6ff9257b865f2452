"""First-order Euler-Maruyama reference for the storage windows of monitored trajectories.

``simulate_trajectories`` draws each storage window from its exact Gaussian
law.  This helper takes the Euler-Maruyama scheme of the conditional means
one time step at a time, through the public API only, and gives the
covariance it assigns to a window; that covariance converges to the exact one
at first order in the step.
"""

import numpy as np

from gaussdaemon import MonitoredModel


def euler_window_covariance(mm: MonitoredModel, sigma_path: np.ndarray, dt: float) -> np.ndarray:
    """Covariance of (mean at the window's end, records summed over it) under Euler-Maruyama from a fixed mean.

    ``sigma_path`` holds the conditional CM at the window's steps, one more
    than the steps.  The scheme r <- r + (A r + d) dt + G_j dW_j with gains
    G_j = E - sigma_c(t_j) B and records y <- y + dW_j - dt B^T r, with
    E[dW dW^T] = I dt / 2, carries the covariance of (r, y) as
    C <- K C K^T + (dt / 2) [G_j; I] [G_j; I]^T, K = [[I + A dt, 0], [-dt B^T, I]].
    """
    two_n, two_m = mm.dd.a.shape[0], mm.b.shape[1]
    k = np.eye(two_n + two_m)
    k[:two_n, :two_n] += mm.dd.a * dt
    k[two_n:, :two_n] = -dt * mm.b.T
    cov = np.zeros_like(k)
    for sigma in sigma_path[:-1]:
        noise = np.concatenate((mm.e - sigma @ mm.b, np.eye(two_m)))
        cov = k @ cov @ k.T + (0.5 * dt) * (noise @ noise.T)
    return cov
