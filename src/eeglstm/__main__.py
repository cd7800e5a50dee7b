"""Entry module of `python -m eeglstm` and the `eeglstm` script: every CLI run
computes on one BLAS thread, so its results are the same bits on any CPUs."""

import os
import sys

from . import BLAS_THREAD_VARS

os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # BLAS reads them once, when numpy is first imported
from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
