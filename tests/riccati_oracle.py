"""A 60-digit oracle for the conditional steady state of a monitored model.

It shares no code with the library.  The Riccati data are assembled in
mpmath from floats the library stores, which are exact inputs here: the
drift A, the coupling C and the input sigma_in, as given.  The measurement
enters through its definition, in the basis sigma_in is written in.  Per input mode j,

    M_j = (sigma_in_j + sigma_m_j)^-1,   sigma_m = nu_m R_theta diag(z_m, 1/z_m) R_theta^T,

with the homodyne limit M_j = u u^T / (u^T sigma_in_j u), u = R_theta (1, 0)^T
and R_theta = [[cos, sin], [-sin, cos]] at the measurement phase.  Then

    At = A + Omega C sigma_in M Omega_m^T C^T,
    Dt = Omega C (sigma_in - sigma_in M sigma_in) C^T Omega^T,
    R  = C Omega_m M Omega_m^T C^T,

and the stabilizing solution of At X + X At^T + Dt - X R X = 0 is started
from the stable eigenvectors of the Hamiltonian [[At^T, -R], [-Dt, -At]] and
polished by Newton-Kleinman steps, each a Lyapunov solve by Kronecker
products.  Use for n <= 3 modes: each step solves a (2n)^2 linear system.
"""

import mpmath as mp

DPS = 60


def _omega(k: int):
    om = mp.zeros(2 * k, 2 * k)
    for j in range(k):
        om[2 * j, 2 * j + 1], om[2 * j + 1, 2 * j] = 1, -1
    return om


def _mp(x):
    return mp.matrix([[mp.mpf(float(v)) for v in row] for row in x])


def _inverse_sum(block, setting):
    """(sigma_in_j + sigma_m)^-1 in mpmath from the setting's fields; the homodyne limit if it is one."""
    c, s = mp.cos(mp.mpf(setting.theta_m)), mp.sin(mp.mpf(setting.theta_m))
    rot = mp.matrix([[c, s], [-s, c]])
    if setting.homodyne:
        u = rot * mp.matrix([1, 0])
        return (u * u.T) / (u.T * block * u)[0]
    nu_m, z = mp.mpf(setting.nu_m), mp.mpf(setting.z_m)
    return mp.inverse(block + nu_m * rot * mp.diag([z, 1 / z]) * rot.T)


def _lyapunov(f, q):
    """X with F X + X F^T + Q = 0, from (I kron F + F kron I) vec X = -vec Q (row-major)."""
    dim = f.rows
    eye = mp.eye(dim)
    kron = mp.zeros(dim * dim, dim * dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    kron[i * dim + j, k * dim + l] = f[i, k] * eye[j, l] + eye[i, k] * f[j, l]
    vec = mp.lu_solve(kron, -mp.matrix([q[i, j] for i in range(dim) for j in range(dim)]))
    return mp.matrix([[vec[i * dim + j] for j in range(dim)] for i in range(dim)])


def riccati_data(a, c, sigma_in, settings):
    """(At, Dt, R) in mpmath from the float drift, coupling and input, and one setting per input mode."""
    n, m = a.shape[0] // 2, c.shape[1] // 2
    a, c, sigma_in = _mp(a), _mp(c), _mp(sigma_in)
    inv = mp.zeros(2 * m, 2 * m)
    for j, setting in enumerate(settings):
        block = sigma_in[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
        inv[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = _inverse_sum(block, setting)
    oc, co = _omega(n) * c, c * _omega(m)
    at = a + oc * sigma_in * inv * co.T
    dt = oc * (sigma_in - sigma_in * inv * sigma_in) * oc.T
    return at, dt, co * inv * co.T


def steady_state(a, c, sigma_in, settings, newton_steps: int = 60):
    """The stabilizing solution X of At X + X At^T + Dt - X R X = 0 to about DPS digits, as an mpmath matrix."""
    with mp.workdps(DPS):
        at, dt, r = riccati_data(a, c, sigma_in, settings)
        dim = at.rows
        ham = mp.zeros(2 * dim, 2 * dim)
        ham[:dim, :dim], ham[:dim, dim:], ham[dim:, :dim], ham[dim:, dim:] = at.T, -r, -dt, -at
        values, vectors = mp.eig(ham)
        stable = [i for i in range(2 * dim) if mp.re(values[i]) < 0]
        if len(stable) != dim:
            raise ArithmeticError(f"{len(stable)} stable Hamiltonian eigenvalues, expected {dim}")
        top = mp.matrix([[vectors[i, k] for k in stable] for i in range(dim)])
        bottom = mp.matrix([[vectors[dim + i, k] for k in stable] for i in range(dim)])
        x = (bottom * mp.inverse(top)).apply(mp.re)
        x = (x + x.T) / 2
        for _ in range(newton_steps):
            step = _lyapunov(at - x * r, dt + x * r * x)
            step = (step + step.T) / 2
            done = mp.mnorm(step - x, 1) <= mp.mpf(10) ** (10 - DPS) * mp.mnorm(step, 1)
            x = step
            if done:
                break
        else:
            raise ArithmeticError("Newton-Kleinman did not converge")
        if max(mp.re(v) for v in mp.eig(at - x * r, left=False, right=False)) >= 0:
            raise ArithmeticError("the Newton-Kleinman solution is not stabilizing")
        return x


def transient(a, c, sigma_in, settings, sigma0, t):
    """sigma(t) on the flow sigma' = At sigma + sigma At^T + Dt - sigma R sigma from sigma0, to about DPS digits.

    [U; V] = expm(H t) [I; sigma0] with H = [[-At^T, R], [Dt, At]] carries
    sigma = V U^-1 along the flow (Radon's lemma).  Returns an mpmath matrix.
    """
    with mp.workdps(DPS):
        at, dt, r = riccati_data(a, c, sigma_in, settings)
        dim = at.rows
        ham = mp.zeros(2 * dim, 2 * dim)
        ham[:dim, :dim], ham[:dim, dim:], ham[dim:, :dim], ham[dim:, dim:] = -at.T, r, dt, at
        prop = mp.expm(ham * mp.mpf(float(t)))
        x0 = _mp(sigma0)
        u = prop[:dim, :dim] + prop[:dim, dim:] * x0
        v = prop[dim:, :dim] + prop[dim:, dim:] * x0
        x = v * mp.inverse(u)
        return (x + x.T) / 2
