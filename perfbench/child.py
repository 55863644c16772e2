"""One batch run in a fresh interpreter; reports its timings as JSON.

Usage (the parent, ``batchload.py``, builds these command lines)::

    python child.py REPORT import
    python child.py REPORT cli ARG...                  # repro's own CLI
    python child.py REPORT synth N_JOBS SEED BOOK       # default workflow
    python child.py REPORT traced-csv CSV BOOK          # layer by layer
    python child.py REPORT traced-synth N_JOBS SEED BOOK

Every mode first imports ``repro.cli``; the moment that import finishes
is when the process is ready to work (the end of set-up).  Times are
``time.monotonic`` readings, comparable with the parent's on one host.
The ``traced-*`` modes run the same work as ``mine-rulebook`` and the
default workflow, but call each layer's public function themselves,
inside spans, in pipeline order.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import repro.cli  # noqa: E402

T_IMPORTED = time.monotonic()

from harness import Tracer  # noqa: E402


def traced_pipeline(tracer: Tracer, trace_name: str, load, book_path: str) -> dict:
    """mine-rulebook's work, one span per layer call."""
    from repro.core import MiningConfig
    from repro.core.items import as_item
    from repro.core.pruning import prune_rule_table
    from repro.core.rules import generate_rule_table
    from repro.core.ruletable import RuleTable
    from repro.engine import MiningEngine
    from repro.traces import get_trace

    definition = get_trace(trace_name)
    config = MiningConfig()
    counts: dict = {}
    with tracer.span("run"):
        table = load()
        with tracer.span("preprocess.run"):
            preprocess = definition.make_preprocessor().run(table)
        db = preprocess.database
        counts["preprocess.n_items"] = db.n_items
        engine = MiningEngine()
        with tracer.span("engine.mine"):
            itemsets = engine.mine(db, config)
        resolved = engine.backend.resolve(db)
        counts["engine.n_itemsets"] = len(itemsets)
        counts["engine.backend_workers"] = getattr(resolved, "n_workers", 1)
        counts["engine.backend"] = f"{engine.backend.name}:{resolved.name}"
        kept = []
        n_generated = 0
        for keyword in definition.keywords.values():
            kw = as_item(keyword)
            kw_id = db.vocabulary.get_id(kw)
            if kw_id is None:
                continue
            with tracer.span("core.generate_rules"):
                generated = generate_rule_table(
                    itemsets,
                    min_lift=config.min_lift,
                    min_confidence=config.min_confidence,
                    keyword_ids=(kw_id,),
                )
            n_generated += len(generated)
            with tracer.span("core.prune"):
                kept_table, _report = prune_rule_table(generated, kw, config.pruning)
            if len(kept_table):
                kept.append(kept_table)
        counts["core.n_rules_generated"] = n_generated
        counts["core.n_rules_kept"] = sum(len(t) for t in kept)
        with tracer.span("serve.rulebook_build"):
            from repro.serve import RuleBook

            union = (
                RuleTable.concat(kept).dedup() if kept
                else RuleTable.empty(db.vocabulary)
            )
            book = RuleBook(
                table=union,
                trace=definition.name,
                keywords=dict(definition.keywords),
                config=config,
                fingerprint=db.fingerprint(),
                backend=counts["engine.backend"],
                n_transactions=len(db),
            )
        with tracer.span("serve.rulebook_save"):
            book.save(book_path)
    counts["serve.n_rules"] = len(book)
    return counts


def main(argv: list[str]) -> int:
    report_path, mode, *args = argv
    report: dict = {"t_start": T_START, "t_imported": T_IMPORTED}
    if mode == "cli":
        report["t_work_start"] = time.monotonic()
        code = repro.cli.main(args)
        report["t_work_end"] = time.monotonic()
        if code != 0:
            return code
    elif mode == "synth":
        n_jobs, seed, book_path = int(args[0]), int(args[1]), args[2]
        from repro.analysis import InterpretableAnalysis
        from repro.traces import get_trace

        report["t_work_start"] = time.monotonic()
        definition = get_trace("supercloud")
        table = definition.generate_scaled(n_jobs, seed=seed)
        result = InterpretableAnalysis(definition.make_preprocessor()).run(
            table, dict(definition.keywords)
        )
        result.to_rulebook(trace=definition.name).save(book_path)
        report["t_work_end"] = time.monotonic()
    elif mode in ("traced-csv", "traced-synth"):
        tracer = Tracer()
        if mode == "traced-csv":
            csv_path, book_path = args

            def load():
                from repro.traces.loader import load_trace

                with tracer.span("traces.load_trace"):
                    return load_trace(csv_path, trace="pai")

            trace_name = "pai"
        else:
            n_jobs, seed, book_path = int(args[0]), int(args[1]), args[2]

            def load():
                from repro.traces import get_trace

                with tracer.span("traces.generate"):
                    return get_trace("supercloud").generate_scaled(n_jobs, seed=seed)

            trace_name = "supercloud"
        report["counts"] = traced_pipeline(tracer, trace_name, load, book_path)
        report["spans"] = tracer.to_json()
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
