"""Step-by-step Euler-Maruyama reference for monitored trajectory ensembles.

A cross-check of ``simulate_trajectories``, which advances a whole storage
window with one product: this helper takes the same scheme one time step at a
time, from the same per-trajectory substreams, through the public API only.
"""

import math

import numpy as np

from gaussdaemon import GaussianState, MonitoredModel, evolve_conditional_cm


def euler_trajectories(
    mm: MonitoredModel, state0: GaussianState, dt: float, T: float, n_traj: int, master_seed: int, store_stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(means, records) of the ensemble, shaped as in ``TrajectoryBatch``, stepped one dt at a time.

    r <- r + (r A^T + d) dt + dW G_t^T with gains G_t = E - sigma_c(t) B, and
    records sum dW - dt r B over each window of ``store_stride`` steps.
    """
    n_steps = int(round(T / dt))
    sigma_path = evolve_conditional_cm(mm, state0.cm, np.arange(n_steps + 1) * dt)
    gains = mm.e - sigma_path[:-1] @ mm.b
    two_m = mm.b.shape[1]
    dw = np.empty((n_traj, n_steps, two_m))
    for k in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(k,)))
        dw[k] = rng.standard_normal((n_steps, two_m))
    dw *= math.sqrt(0.5 * dt)

    r = np.tile(state0.mean, (n_traj, 1))
    means, records = [r], []
    acc = np.zeros((n_traj, two_m))
    for t in range(n_steps):
        acc = acc + dw[:, t] - (r @ mm.b) * dt
        r = r + (r @ mm.dd.a.T + mm.dd.drive) * dt + dw[:, t] @ gains[t].T
        if (t + 1) % store_stride == 0:
            means.append(r)
            records.append(acc)
            acc = np.zeros((n_traj, two_m))
    return np.stack(means, axis=1), np.stack(records, axis=1)
