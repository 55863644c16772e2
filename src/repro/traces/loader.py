"""Persisting and re-loading generated traces.

Generated traces round-trip through CSV so experiments can pin a dataset
(a "release" of the synthetic trace, mirroring how the paper's SuperCloud
trace is published as files) and so external tools can consume it.
Loading validates the schema against the trace's expected columns and
restores the boolean flag columns the analysis needs.
"""

from __future__ import annotations

import os

from ..dataframe import BooleanColumn, ColumnTable, NumericColumn, read_csv, write_csv
from .registry import get_trace

__all__ = ["save_trace", "load_trace", "EmptyTraceError", "REQUIRED_COLUMNS"]


class EmptyTraceError(ValueError):
    """A trace CSV with a header but no job rows: there is nothing to mine."""

#: columns every saved trace must carry to be analysable by its preprocessor
REQUIRED_COLUMNS: dict[str, tuple[str, ...]] = {
    "pai": (
        "user", "group", "queue_delay", "runtime", "n_gpus", "cpu_request",
        "mem_request", "gpu_type_req", "framework", "status", "mem_used_gb",
        "gmem_used_gb", "sm_util", "cpu_util", "multi_task", "failed",
    ),
    "supercloud": (
        "user", "queue_delay", "runtime", "sm_util", "sm_util_var",
        "gmem_util", "gmem_util_var", "gmem_used_gb", "gpu_power",
        "cpu_util", "mem_used_gb", "is_new_user", "failed", "killed",
    ),
    "philly": (
        "user", "queue_delay", "runtime", "n_gpus", "gpu_type", "sm_util",
        "sm_util_min", "sm_util_max", "cpu_util", "num_attempts",
        "is_new_user", "multi_gpu", "retried", "gpu_24gb", "failed", "killed",
    ),
}

#: columns that must come back as booleans after the CSV round trip
_FLAG_COLUMNS = (
    "failed", "killed", "multi_task", "multi_gpu", "retried",
    "gpu_24gb", "is_new_user",
)


def save_trace(table: ColumnTable, path: str | os.PathLike) -> None:
    """Write a generated trace table to CSV."""
    write_csv(table, path)


def load_trace(path: str | os.PathLike, trace: str | None = None) -> ColumnTable:
    """Load a trace CSV; with *trace* given, validate its schema.

    A validated trace must also hold at least one job, else
    :class:`EmptyTraceError`; the preprocessors cannot type the columns
    of a header-only file.

    Boolean flag columns that the CSV reader parsed as 0/1 numerics are
    restored to booleans, so a loaded trace behaves identically to a
    freshly generated one under the preprocessors.
    """
    table = read_csv(path)
    if trace is not None:
        definition = get_trace(trace)
        missing = [
            c for c in REQUIRED_COLUMNS[definition.name] if c not in table
        ]
        if missing:
            raise ValueError(
                f"CSV at {os.fspath(path)!r} is missing {definition.display_name} "
                f"columns: {missing}"
            )
        if len(table) == 0:
            raise EmptyTraceError(
                f"CSV at {os.fspath(path)!r} has a header but no "
                f"{definition.display_name} job rows"
            )
    for name in _FLAG_COLUMNS:
        if name in table:
            column = table[name]
            if isinstance(column, NumericColumn) and not column.isna().any():
                values = column.values
                if set(values.tolist()) <= {0.0, 1.0}:
                    table.add_column(name, BooleanColumn(values.astype(bool)))
    return table
