"""Bed-occupancy classification from 8x8 thermal frames.

Simulator for low-resolution thermal scenes, from-scratch classifiers
(SVM, k-NN, one-hidden-layer NN), a cross-validation/sweep harness, and
a bed-exit alerting state machine, all seeded and reproducible.
"""

__version__ = "0.1.0"
