"""The batch workloads: ``pai-csv`` and ``supercloud-synth``.

Each run of the program is a fresh interpreter (``child.py``), so every
repetition pays, and measures, what a user of ``repro mine-rulebook``
pays: interpreter start, imports, then input → RuleBook on disk.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    Outcome,
    book_records,
    child_env,
    layer_seconds,
    median,
    metric,
    residual,
    say,
    spans_from_json,
)

CHILD = Path(__file__).resolve().parent / "child.py"

#: a batch child that runs this long has hung (a full-size run takes ~10 s)
CHILD_TIMEOUT_S = 60.0

#: spans of the traced pipeline → per-layer metric names
LAYER_SPANS = {
    "traces.load_trace": "traces.load_trace_s",
    "traces.generate": "traces.generate_s",
    "preprocess.run": "preprocess.run_s",
    "engine.mine": "engine.mine_s",
    "core.generate_rules": "core.generate_rules_s",
    "core.prune": "core.prune_s",
    "serve.rulebook_build": "serve.rulebook_build_s",
    "serve.rulebook_save": "serve.rulebook_save_s",
}

#: counts the traced child reads through public interfaces
LAYER_COUNTS = (
    "preprocess.n_items",
    "engine.n_itemsets",
    "engine.backend_workers",
    "core.n_rules_generated",
    "core.n_rules_kept",
    "serve.n_rules",
)


@dataclass(frozen=True)
class BatchScale:
    """Input sizes of the batch workloads."""

    pai_jobs: int = 100_000
    supercloud_jobs: int = 12_000


SMOKE = BatchScale(pai_jobs=3_000, supercloud_jobs=1_500)


@dataclass(slots=True)
class ChildRun:
    report: dict | None
    launched: float
    wall_s: float
    error: str | None

    @property
    def setup_s(self) -> float:
        return self.report["t_imported"] - self.launched

    @property
    def work_s(self) -> float:
        return self.report["t_work_end"] - self.report["t_work_start"]


def run_child(work: Path, tag: str, mode: str, args: list[str]) -> ChildRun:
    report_path = work / f"{tag}.report.json"
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(report_path), mode, *args],
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return ChildRun(None, launched, time.monotonic() - launched, "timeout")
    wall_s = time.monotonic() - launched
    if proc.returncode != 0 or not report_path.exists():
        detail = proc.stderr.decode(errors="replace").strip().splitlines()
        return ChildRun(
            None, launched, wall_s,
            f"exit {proc.returncode}: {detail[-1] if detail else ''}",
        )
    return ChildRun(json.loads(report_path.read_text()), launched, wall_s, None)


def prepare_pai_csv(work: Path, seed: int, n_jobs: int) -> Path:
    """The 100k-job PAI trace CSV, drawn from *seed* by the columnar sampler."""
    from repro.traces.loader import save_trace
    from repro.traces.synthetic.pai import PAIConfig, generate_pai

    path = work / "pai.csv"
    table = generate_pai(
        PAIConfig(n_jobs=n_jobs, seed=seed, columnar=True, use_scheduler=False)
    )
    save_trace(table, path)
    return path


def run_batch(
    workload: str, seed: int, seconds: float, trace: bool, work: Path, scale: BatchScale
) -> tuple[dict, Outcome, dict]:
    """Measure one batch workload; returns (metrics, outcome, details)."""
    from repro.traces import get_trace

    if workload == "pai-csv":
        n_jobs = scale.pai_jobs
        csv = prepare_pai_csv(work, seed, n_jobs)
        definition = get_trace("pai")

        def untraced(book):
            return "cli", ["mine-rulebook", "--trace", "pai", "--input", str(csv),
                           "--output", str(book)]

        def traced(book):
            return "traced-csv", [str(csv), str(book)]

        def input_table():
            from repro.traces.loader import load_trace

            return load_trace(csv, trace="pai")
    else:
        n_jobs = scale.supercloud_jobs
        definition = get_trace("supercloud")

        def untraced(book):
            return "synth", [str(n_jobs), str(seed), str(book)]

        def traced(book):
            return "traced-synth", [str(n_jobs), str(seed), str(book)]

        def input_table():
            return definition.generate_scaled(n_jobs, seed=seed)

    outcome = Outcome()
    setups: list[float] = []
    imports: list[float] = []

    def note_child(run: ChildRun, what: str) -> bool:
        if run.error is not None:
            outcome.fail(f"{what}: {run.error}")
            say(f"  {what} failed: {run.error}")
            return False
        setups.append(run.setup_s)
        imports.append(run.report["t_imported"] - run.report["t_start"])
        return True

    plain: list[ChildRun] = []
    spanned: list[ChildRun] = []
    digests: set[str] = set()
    started = time.monotonic()
    i = 0
    while True:
        # an import-only launch before each run spreads set-up samples
        # over the measuring time, like the runs themselves
        if note_child(run_child(work, f"import{i}", "import", []), "import"):
            outcome.ok()
        is_traced = trace and i % 2 == 1
        book = work / f"run{i}.book.jsonl"
        mode, args = (traced if is_traced else untraced)(book)
        run = run_child(work, f"run{i}", mode, args)
        i += 1
        if note_child(run, mode):
            header, digest = book_records(book)
            if header.get("n_rules", 0) < 1 or header.get("n_transactions") != n_jobs:
                outcome.fail(f"{mode}: book header {header.get('n_rules')} rules "
                             f"from {header.get('n_transactions')} jobs")
            else:
                (spanned if is_traced else plain).append(run)
                digests.add(digest)
                run.report["book"] = book
        elapsed = time.monotonic() - started
        # a run that would overshoot the measuring time is not started;
        # two are the least that can be compared
        if i >= 2 and elapsed + elapsed / i > seconds:
            break

    if not plain or (trace and not spanned):
        raise RuntimeError(f"{workload}: no run completed ({outcome.reasons})")
    if len(digests) > 1:
        # same seed, same input: every run must save the same rule records
        outcome.fail("rule records differ between runs", len(plain) + len(spanned))
    else:
        outcome.ok(len(plain) + len(spanned))
    # after the timed runs: the saved rules against a direct count
    wrong = recount_mismatches(plain[0].report["book"], definition, input_table())
    if wrong:
        outcome.fail(f"{wrong} rules contradict a direct count of the input")
    else:
        outcome.ok()

    work_s = [run.work_s for run in plain]
    details = {
        "n_jobs": n_jobs,
        "runs": len(plain),
        "traced_runs": len(spanned),
        "setup_samples": len(setups),
        "work_s": work_s,
        "wall_s": [run.wall_s for run in plain],
    }
    if not trace:
        # means, not medians: the host's speed shifts between a few
        # levels for seconds at a time, and a mean over the run blends
        # them where a median of few samples jumps between them
        metrics = {
            "setup_s": metric(statistics.fmean(setups), "s"),
            "jobs_per_s": metric(n_jobs * len(work_s) / sum(work_s), "jobs/s"),
            "latency_ms": metric(
                1e3 * statistics.fmean(run.wall_s for run in plain), "ms"
            ),
            "peak_rss_mb": metric(
                median([run.report["maxrss_kb"] for run in plain]) / 1024, "MB"
            ),
        }
        return metrics, outcome, details

    untraced_s = median(work_s)
    layers: dict[str, list[float]] = {name: [] for name in LAYER_SPANS.values()}
    residuals: list[float] = []
    traced_total: list[float] = []
    for run in spanned:
        spans = spans_from_json(run.report["spans"])
        root = next(s for s in spans if s.parent is None)
        per_layer = layer_seconds(spans, root)
        for span_name, metric_name in LAYER_SPANS.items():
            layers[metric_name].append(per_layer.get(span_name, 0.0))
        residuals.append(residual(untraced_s, spans, root))
        traced_total.append(root.seconds)
    last = spanned[-1].report
    counts = last["counts"]
    metrics = {name: metric(median(values), "s") for name, values in layers.items()}
    metrics.update({name: metric(counts[name], "count") for name in LAYER_COUNTS})
    metrics["core.prune_keep_ratio"] = metric(
        counts["core.n_rules_kept"] / max(counts["core.n_rules_generated"], 1), "ratio"
    )
    metrics["serve.rulebook_bytes"] = metric(last["book"].stat().st_size, "bytes")
    metrics["cli.import_s"] = metric(median(imports), "s")
    metrics["residual_s"] = metric(median(residuals), "s")
    metrics["trace_overhead_s"] = metric(median(traced_total) - untraced_s, "s")
    details["engine.backend"] = counts["engine.backend"]
    details["spans"] = [run.report["spans"] for run in spanned]
    return metrics, outcome, details


def recount_mismatches(book: Path, definition, table, sample: int = 500) -> int:
    """Rules of *book* that a direct count over the input contradicts.

    The input is preprocessed again here; each sampled rule's support,
    confidence and lift are then recounted from the transactions with
    plain array logic, independent of the miners, and every rule must
    involve one of the trace's keywords.  The book must also name the
    same database fingerprint, so it was mined from this very input.
    """
    import numpy as np
    from repro.core.items import Item, as_item

    db = definition.make_preprocessor().run(table).database
    with open(book, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rules = [json.loads(line) for line in fh]
    if header.get("fingerprint") != db.fingerprint():
        return len(rules)
    items = [Item(feature, value) for feature, value in header["items"]]
    ids = [db.vocabulary.get_id(item) for item in items]
    keywords = {as_item(k) for k in definition.keywords.values()}
    has = np.zeros((len(db), db.n_items), dtype=bool)
    has[np.repeat(np.arange(len(db)), np.diff(db.indptr)), db.indices] = True
    n = len(db)
    wrong = 0
    for i in random.Random(0).sample(range(len(rules)), min(sample, len(rules))):
        rule = rules[i]
        sides = (rule["antecedent_ids"], rule["consequent_ids"])
        cols = [[ids[k] for k in side] for side in sides]
        if None in cols[0] + cols[1] or not keywords & {
            items[k] for k in sides[0] + sides[1]
        }:
            wrong += 1
            continue
        x, y = (has[:, c].all(axis=1) for c in cols)
        n_x, n_y, n_xy = int(x.sum()), int(y.sum()), int((x & y).sum())
        expected = {
            "support": n_xy / n,
            "confidence": n_xy / n_x,
            "lift": (n_xy / n) / ((n_x / n) * (n_y / n)),
        }
        if not all(math.isclose(float(rule[k]), v, rel_tol=1e-9)
                   for k, v in expected.items()):
            wrong += 1
    return wrong
