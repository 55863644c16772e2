"""Unified mining engine: one serial plan × cache × instrumented pipeline.

Single mining entry point for the whole stack (see DESIGN.md §6):

* :mod:`repro.engine.engine` — :class:`MiningEngine`, which mines with
  one in-process pass of the configured algorithm (its plan, named by
  :class:`SerialBackend`), plus the process-wide :func:`default_engine`;
* :mod:`repro.engine.cache` — content-addressed, LRU-bounded
  :class:`ItemsetCache` keyed by database fingerprint × mining config;
* :mod:`repro.engine.stats` — per-stage :class:`EngineStats`
  instrumentation.
"""

from .cache import CacheStats, ItemsetCache, LRUCache
from .engine import MiningEngine, SerialBackend, default_engine, set_default_engine
from .stats import EngineStats, LatencyHistogram, StageStats

__all__ = [
    "MiningEngine",
    "default_engine",
    "set_default_engine",
    "SerialBackend",
    "ItemsetCache",
    "LRUCache",
    "CacheStats",
    "EngineStats",
    "StageStats",
    "LatencyHistogram",
]
