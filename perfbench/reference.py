"""A fixed reference kernel that measures how fast the machine runs right now.

On a machine whose cores are shared with other tenants, their load slows the
same code by up to a third, for milliseconds to minutes at a time.  The
kernel below does the same kind of work as the library (small dense numpy
calls), never changes, and does not touch gaussdaemon.  Run right after each
operation, its mean time tracks the slowdown the operation saw; the
benchmark reports operation times in kernel units times ``REFERENCE_S``, the
kernel's median on a shared 2-core Intel Xeon virtual machine.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 3.0e-4
SHARE = 0.25  # reference time after each operation: this share of its time, at least one call

_M = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.0, 0.2], [0.1, 0.0, 1.8, 0.1], [0.0, 0.2, 0.1, 1.2]])
_EYE = np.eye(4)
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_X = np.linspace(-1.0, 1.0, 512).reshape(256, 2)
_A = np.array([[0.9, 0.1], [-0.1, 0.8]])


def kernel() -> float:
    """Physicality-style complex eigvalsh, 2 x 2 det and inverse, a 256-row update, a Riccati-style step."""
    acc = 0.0
    x = _X
    s = _A
    for i in range(6):
        m = _M + (i * 1e-3) * _EYE
        acc += float(np.linalg.eigvalsh(m + 1j * _OMEGA)[0])
        acc += float(np.linalg.det(m[:2, :2])) + float(np.linalg.inv(m[:2, :2])[0, 1])
        x = x + (x @ _A) * 1e-3
        k = _A @ s + s @ _A.T - s @ s
        s = s + 1e-3 * (k + k.T)
    return acc + float(x[0, 0]) + float(s[0, 0])


def paired(op_seconds: float) -> float:
    """Mean kernel time over a block of calls taking about SHARE * op_seconds."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SHARE * op_seconds:
            return elapsed / calls
