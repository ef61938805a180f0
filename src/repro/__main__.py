"""``python -m repro`` entry point."""

import os
import sys

# One BLAS thread per process, set before numpy loads: the forest fit
# forks its own workers, and OpenBLAS's default of one thread per CPU
# in each of them oversubscribes the cores.  A value already in the
# environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

sys.exit(main())
