"""Arithmetic and process plumbing shared by the benchmark's workloads.

Nothing here imports ``repro``: the self-tests exercise these helpers
without the program, and ``run.py`` checks that the program is present
before any workload starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: the checkout the benchmark runs in: this file lives in <root>/perfbench/
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: generated inputs, books and per-run records; listed in .gitignore
WORK = ROOT / ".perfbench"

#: metric names and units, as BENCHMARK.json allows them
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: percentiles the latency summaries may report, lowest first
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


# -- quantiles -------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation between order stats.

    Matches ``numpy.percentile(values, 100 * q)`` (the "linear" method).
    """
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_percentile(n_samples: int) -> float | None:
    """Highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        # rounded: 100 * (1 - 0.9) is a hair under 10 in binary floats
        if round(n_samples * (100.0 - p) / 100.0, 6) >= 10.0:
            best = p
    return best


def summarize(values) -> dict:
    """Median, the highest well-sampled percentile, and the sample count."""
    n = len(values)
    out = {"n": n, "p50": median(values)}
    tail = tail_percentile(n)
    if tail is not None and tail > 50.0:
        out["tail_percentile"] = tail
        out["tail"] = quantile(values, tail / 100.0)
    return out


# -- spans -------------------------------------------------------------------------
@dataclass(slots=True)
class Span:
    """One timed call: name, start, end (``time.perf_counter``) and parent."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


class Tracer:
    """In-memory span recorder; spans nest by the ``with`` block they open in."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            math.nan,
            self._stack[-1] if self._stack else None,
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def to_json(self) -> list[dict]:
        return [span.as_dict() for span in self.spans]


def spans_from_json(records: list[dict]) -> list[Span]:
    return [
        Span(r["id"], r["name"], r["start"], r["end"], r["parent"]) for r in records
    ]


def children(spans: list[Span], parent: Span) -> list[Span]:
    return [s for s in spans if s.parent == parent.span_id]


def self_time(spans: list[Span], span: Span) -> float:
    """*span*'s duration minus the part of it its child spans cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children(spans, span), key=lambda s: s.start):
        lo = max(child.start, reach, span.start)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def layer_seconds(spans: list[Span], root: Span) -> dict[str, float]:
    """Total duration of each named child of *root* (repeated names summed)."""
    out: dict[str, float] = {}
    for child in children(spans, root):
        out[child.name] = out.get(child.name, 0.0) + child.seconds
    return out


def residual(untraced_seconds: float, spans: list[Span], root: Span) -> float:
    """Untraced run time not accounted for by *root*'s traced layer spans."""
    return untraced_seconds - (root.seconds - self_time(spans, root))


# -- results -------------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    if not UNIT.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value must be finite, got {value}")
    return {"value": value, "unit": unit}


def check_metrics(metrics: dict, declared: list[dict]) -> None:
    """Every declared metric present with its unit, and nothing else."""
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(want))}"
        )
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            raise ValueError(
                f"{name}: unit {metrics[name]['unit']!r}, declared {unit!r}"
            )


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


@dataclass(slots=True)
class Outcome:
    """Operations attempted and failed, with the count of each failure kind."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


#: RuleBook header fields that record how a book was made, not what it says
PROVENANCE_FIELDS = (
    "trace", "keywords", "config", "fingerprint", "backend", "n_transactions",
    "stream",
)


def book_records(path: Path) -> tuple[dict, str]:
    """A saved RuleBook's header and a digest of its rule records.

    The digest covers the item table (rule records refer to items by id)
    and every rule line, but no provenance field, so two runs that mined
    the same rules agree whatever backend or fingerprint they recorded.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        content = {k: v for k, v in header.items() if k not in PROVENANCE_FIELDS}
        digest.update(json.dumps(content, sort_keys=True).encode())
        for line in fh:
            digest.update(line)
    return header, digest.hexdigest()


# -- environment header -------------------------------------------------------------
def env_header() -> dict:
    """Where a result was measured: cores, interpreter, NumPy, source revision."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - the program needs numpy anyway
        numpy_version = None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    n_lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        n_lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": n_lines,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_sha() -> str | None:
    # benchmark checkouts are plain file trees; only a real clone has a sha
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


# -- child processes ----------------------------------------------------------------
def child_env() -> dict:
    """Environment of every process under test: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def stop_process(proc: subprocess.Popen, grace_s: float = 10.0) -> int:
    """Wait for *proc* up to *grace_s*, then kill it; always reaps."""
    try:
        return proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def peak_rss_kb(pid: int) -> int:
    """Peak resident set of a live process (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # fields after the parenthesised command name; utime, stime are 14, 15
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def say(message: str) -> None:
    """Progress and summaries go to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
