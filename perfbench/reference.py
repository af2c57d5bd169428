"""Fixed reference kernels that time the machine, not circumproj.

The machines the benchmark runs on are shared: the speed of the same
operation moves by up to 2x for tens of seconds at a time, and by 30% or
more between sets of runs minutes apart, whatever the program does. Each
kernel below does a fixed amount of work of the kind one workload does,
without calling circumproj. Timed just before and just after an operation,
it tells how fast the machine was for that kind of work while the
operation ran, and a time divided by it is steady where the wall time is
not. run.py reports set-up and operation times in reference seconds: wall
time * the kernel's nominal time / the kernel's time alongside.

* ``kernel_s`` ("small") follows single-threaded work on small arrays:
  iterate-long's iterations (small dense factorizations, matrix-vector
  products, Python loops, float formatting) and set-up (imports). Its
  arrays are 30x21 at most, below the sizes at which BLAS starts threads.
* ``dense_kernel_s`` ("dense") follows work that keeps the BLAS threads busy
  on 60- and 200-dimensional matrices, as family-psi and resolve-n200 do.
  The small kernel does not: dividing resolve-n200's times by it widened
  their run-to-run spread from 0.06 to 0.25, and family-psi's wall time
  fell by 30% in a period in which the small kernel ran faster.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The small kernel's best time on the 2-vCPU machine the benchmark was tuned
# on (Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31): a
# reference second is about a second of that machine at its fastest.
REFERENCE_S = 0.04

# The dense kernel's best time on the same machine, BLAS threads unset (2).
DENSE_REFERENCE_S = 0.085

_RNG = np.random.default_rng(20191203)
_B = _RNG.standard_normal((30, 21))
_A = _RNG.standard_normal((30, 30)) / 6.0
_M60 = _RNG.standard_normal((60, 60))
_M200 = _RNG.standard_normal((200, 200))
_T200 = _RNG.standard_normal((200, 100))


def kernel_s() -> float:
    """Run the small kernel once and return its wall time in seconds."""
    start = perf_counter()
    x = np.ones(30)
    lines = []
    for k in range(300):
        q, _ = np.linalg.qr(_B)
        c, *_ = np.linalg.lstsq(_B, x, rcond=None)
        x = _A @ x + q @ c * 1e-3
        x /= np.linalg.norm(x)
        lines.append(f"{k},{x[0]!r},{x[1]!r},{float(x @ x)!r}")
    "\n".join(lines)
    return perf_counter() - start


def dense_kernel_s() -> float:
    """Run the dense kernel once and return its wall time in seconds: SVDs,
    QRs and products of 60- and 200-dimensional matrices, which keep the
    BLAS threads busy as family-psi and resolve-n200 do."""
    start = perf_counter()
    for _ in range(4):
        np.linalg.svd(_M200)
        np.linalg.qr(_T200)
        _M200 @ _M200
    for _ in range(40):
        np.linalg.svd(_M60)
        _M60 @ _M60
    return perf_counter() - start


# Kernel name: (the kernel, its best time on the tuning machine).
KERNELS = {
    "small": (kernel_s, REFERENCE_S),
    "dense": (dense_kernel_s, DENSE_REFERENCE_S),
}
