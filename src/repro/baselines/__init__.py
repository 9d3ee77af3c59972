"""``repro.baselines`` — every comparison method from Tables III–V,
re-implemented on the ``repro.nn`` substrate.

Forecasting (Table III/IV): :class:`SimTS`, :class:`TS2Vec`, :class:`TNC`,
:class:`CoST` (representation learning) and :class:`InformerForecaster`,
:class:`TCNForecaster` (end-to-end).

Classification (Table V): :class:`MHCCL`, :class:`CCL`, :class:`SimCLR`,
:class:`BYOL`, :class:`TS2Vec`, :class:`TSTCC`, :class:`TLoss`.
"""

from .base import ConvEncoder, EndToEndForecaster, SSLBaseline
from .byol import BYOL
from .ccl import CCL
from .clustering import assign_clusters, kmeans
from .cost import CoST
from .informer import InformerForecaster
from .mhccl import MHCCL
from .simclr import SimCLR
from .simts import SimTS
from .tcn_forecaster import TCNForecaster
from .tloss import TLoss
from .tnc import TNC
from .ts2vec import TS2Vec
from .tstcc import TSTCC

FORECASTING_SSL_BASELINES = {
    "SimTS": SimTS,
    "TS2Vec": TS2Vec,
    "TNC": TNC,
    "CoST": CoST,
}

END_TO_END_FORECASTERS = {
    "Informer": InformerForecaster,
    "TCN": TCNForecaster,
}

CLASSIFICATION_BASELINES = {
    "MHCCL": MHCCL,
    "CCL": CCL,
    "SimCLR": SimCLR,
    "BYOL": BYOL,
    "TS2Vec": TS2Vec,
    "TS-TCC": TSTCC,
    "T-Loss": TLoss,
}

__all__ = [
    "SSLBaseline", "EndToEndForecaster", "ConvEncoder",
    "SimTS", "TS2Vec", "TNC", "CoST", "InformerForecaster", "TCNForecaster",
    "MHCCL", "CCL", "SimCLR", "BYOL", "TSTCC", "TLoss",
    "kmeans", "assign_clusters",
    "FORECASTING_SSL_BASELINES", "END_TO_END_FORECASTERS",
    "CLASSIFICATION_BASELINES",
]
