"""``repro.utils`` — training utilities shared by experiments and examples."""

from .fileio import BackoffPolicy, atomic_write_text
from .training import EarlyStopping, MetricTracker, set_global_seed

__all__ = ["EarlyStopping", "MetricTracker", "set_global_seed",
           "atomic_write_text", "BackoffPolicy"]
