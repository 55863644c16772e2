"""Trace substrate: synthetic generators for PAI, SuperCloud and Philly.

The public GPU traces the paper analyses are not shipped with this
repository (no network access), so each trace is replaced by a calibrated
synthetic generator running through the cluster-simulator substrate; see
DESIGN.md §2 for the substitution argument.
"""

from .loader import EmptyTraceError, load_trace, save_trace
from .registry import TRACES, TraceDefinition, get_trace, list_traces
from .stats import TraceStats, characterize, gini
from .synthetic.pai import PAI_KEYWORDS, PAIConfig, generate_pai, pai_preprocessor
from .synthetic.philly import (
    PHILLY_KEYWORDS,
    PhillyConfig,
    generate_philly,
    philly_preprocessor,
)
from .synthetic.supercloud import (
    SUPERCLOUD_KEYWORDS,
    SuperCloudConfig,
    generate_supercloud,
    supercloud_preprocessor,
)

__all__ = [
    "TraceDefinition",
    "TRACES",
    "get_trace",
    "list_traces",
    "save_trace",
    "load_trace",
    "EmptyTraceError",
    "TraceStats",
    "characterize",
    "gini",
    "PAIConfig",
    "generate_pai",
    "pai_preprocessor",
    "PAI_KEYWORDS",
    "SuperCloudConfig",
    "generate_supercloud",
    "supercloud_preprocessor",
    "SUPERCLOUD_KEYWORDS",
    "PhillyConfig",
    "generate_philly",
    "philly_preprocessor",
    "PHILLY_KEYWORDS",
]
