"""Test-session setup.

BLAS is pinned to one thread per process before numpy loads. `run_trial`
and `run_grid` pin it themselves while they run; this covers the tests that
call the GP and the maximizer directly, whose small matrix products gain
nothing from OpenBLAS's default of one thread per core.

Property tests draw their examples from a fixed seed (`derandomize`), so a
test run is as repeatable as the rest of the suite.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402 - after the BLAS pin, like every other import

settings.register_profile("afsched", derandomize=True, database=None, deadline=None)
settings.load_profile("afsched")
