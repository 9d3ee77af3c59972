"""TimeDRL reproduction (ICDE 2024) on a from-scratch NumPy substrate.

Public entry points::

    from repro.core import TimeDRL, TimeDRLConfig
    from repro.train import TrainOptions, TrainSession
    from repro.data import load_forecasting_dataset, load_classification_dataset
    from repro.evaluation import ridge_probe_forecasting, linear_probe_classification
"""

__version__ = "1.0.0"
