"""From-scratch LSTM toolkit for binary classification of raw single-channel
EEG time series: layers with hand-derived backward passes, Adam, k-fold
evaluation, and a reproduction CLI."""

__version__ = "0.1.0"

# The thread-count variables of OpenBLAS, OpenMP and MKL, each 1 in every CLI run and every worker.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
