"""Test-session setup.

BLAS is pinned to one thread per process before numpy loads: the acceptance
grid runs `run_grid` in this process, and OpenBLAS's default of one thread
per core makes its many small matrix products fight over the cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
