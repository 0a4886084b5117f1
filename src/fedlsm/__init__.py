"""Desk-scale federated learning with mismatched client label sets.

Clients each recognize only a subset of the global classes; the rest of
their labels are missing, not negative.  Training recovers the missing
supervision with confidence-filtered pseudo-labels from an EMA teacher,
folds the leftover uncertain samples back in through MixUp, and
aggregates classification proxies per class, weighted by how much of
each class a client actually saw.

The package root exports README's "Library use" names, the error types
and nn.forward; import everything else from its module.
"""

from .client import ClientConfig
from .data import FederationConfig, gen_federation
from .errors import (AggregationError, ConfigError, NumericError, ParseError,
                     ShapeError)
from .nn import forward
from .server import run_federation

__version__ = "0.1.0"

__all__ = [
    "AggregationError", "ClientConfig", "ConfigError", "FederationConfig",
    "NumericError", "ParseError", "ShapeError", "forward", "gen_federation",
    "run_federation",
]
