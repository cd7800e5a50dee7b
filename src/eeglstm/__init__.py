"""From-scratch LSTM toolkit for binary classification of raw single-channel
EEG time series: layers with hand-derived backward passes, Adam, k-fold
evaluation, and a reproduction CLI."""

__version__ = "0.1.0"
