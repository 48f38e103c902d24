"""Chance-neutral cluster-label matching and vote-aggregation diagnostics.

The package turns pairs of crisp clusterings into square contingency
tables, matches their labels either by raw-count trace maximization or
by maximizing signed chi-squared residuals (which stays neutral on
random data even with very unequal cluster sizes), scores agreement,
and aggregates bootstrap cluster votes into membership-probability
matrices with entropy-based model diagnostics.
"""

from importlib import import_module

from .labels import *  # noqa: F403
from .crosstab import *  # noqa: F403
from .assignment import *  # noqa: F403
from .matching import *  # noqa: F403
from .agreement import *  # noqa: F403
from .mmcc import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__, in the order of the imports above
__all__ = [
    name
    for module in ("labels", "crosstab", "assignment", "matching", "agreement", "mmcc", "simulate")
    for name in import_module(f".{module}", __name__).__all__
]
del import_module
