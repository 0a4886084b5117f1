"""Desk-scale federated learning with mismatched client label sets.

Clients each recognize only a subset of the global classes; the rest of
their labels are missing, not negative.  Training recovers the missing
supervision with confidence-filtered pseudo-labels from an EMA teacher,
folds the leftover uncertain samples back in through MixUp, and
aggregates classification proxies per class, weighted by how much of
each class a client actually saw.
"""

from .client import ClientConfig, ClientUpdate, local_train
from .config import ExperimentConfig, config_from_dict, load_config
from .data import (AugmentConfig, ClientData, EvalSet, Federation,
                   FederationConfig, gen_federation)
from .errors import (AggregationError, ConfigError, NumericError, ParseError,
                     ShapeError)
from .metrics import EvalResult, macro_metrics, roc_auc
from .nn import ModelParams, forward, gradcheck, init_params, load_params, \
    save_params
from .server import FederationResult, aggregate, run_federation
from .uncertainty import entropy_multi, entropy_single, partition

__version__ = "0.1.0"

__all__ = [
    "AggregationError", "AugmentConfig", "ClientConfig", "ClientData",
    "ClientUpdate", "ConfigError", "EvalResult", "EvalSet",
    "ExperimentConfig", "Federation", "FederationConfig", "FederationResult",
    "ModelParams", "NumericError", "ParseError", "ShapeError", "aggregate",
    "config_from_dict", "entropy_multi", "entropy_single", "forward",
    "gen_federation", "gradcheck", "init_params", "load_config",
    "load_params", "local_train", "macro_metrics", "partition", "roc_auc",
    "run_federation", "save_params",
]
