"""Shared-memory zero-copy rule plane for the serving fleet.

A compiled rule plane (RuleTable columns,
:class:`~repro.serve.batchmatch.BatchMaskKernel` masks, per-rule wire
JSON) is published once into a ``multiprocessing.shared_memory``
segment and attached read-only by every shard that serves it: the
fleet's hot-swap ships a segment *name* through ``broadcast_reload``,
so each shard attaches the already-compiled plane in milliseconds and
fleet RSS stays ~1× the book instead of N×.

Layout, naming and lifecycle live in :mod:`repro.shm.segment`; the
rule-plane codec is :mod:`repro.shm.ruleplane`.  Everything degrades
gracefully: when shared memory is unavailable (or ``REPRO_NO_SHM`` is
set / ``repro serve --no-shm`` passed) each shard compiles its own index
from the rulebook path, the load path that predates this module and
is also retained as the CI equivalence oracle.
"""

from .segment import (
    SegmentError,
    SegmentLease,
    AttachedSegment,
    attach_segment,
    publish_segment,
    shm_available,
    gc_stale_segments,
    list_segments,
    unlink_all_leases,
)
from .ruleplane import attach_rule_plane, publish_rule_plane

__all__ = [
    "SegmentError",
    "SegmentLease",
    "AttachedSegment",
    "attach_segment",
    "publish_segment",
    "shm_available",
    "gc_stale_segments",
    "list_segments",
    "unlink_all_leases",
    "attach_rule_plane",
    "publish_rule_plane",
]
