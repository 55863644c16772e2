"""Self-tests of the benchmark: its arithmetic, its contract, and a tiny run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys

import pytest

from harness import (
    METRIC_NAME,
    ROOT,
    Span,
    Tracer,
    book_records,
    check_metrics,
    layer_seconds,
    metric,
    quantile,
    residual,
    self_time,
    summarize,
    tail_percentile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- quantiles ---------------------------------------------------------------------
def test_quantile_matches_the_linear_method():
    rng = random.Random(3)
    for n in (1, 2, 3, 10, 101):
        values = [rng.random() for _ in range(n)]
        ordered = sorted(values)
        assert quantile(values, 0.0) == ordered[0]
        assert quantile(values, 1.0) == ordered[-1]
        assert quantile(values, 0.5) == pytest.approx(statistics.median(values))
        if n >= 2:
            # statistics' "inclusive" method is the same interpolation
            deciles = statistics.quantiles(values, n=10, method="inclusive")
            for k, expected in enumerate(deciles, start=1):
                assert quantile(values, k / 10) == pytest.approx(expected)


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (10_000, 99.9), (1_000_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_the_sample_count_and_tail():
    values = list(range(1, 1001))
    out = summarize(values)
    assert out["n"] == 1000
    assert out["p50"] == pytest.approx(500.5)
    assert out["tail_percentile"] == 99.0
    assert out["tail"] == pytest.approx(quantile(values, 0.99))
    assert "tail" not in summarize([1.0, 2.0, 3.0])


# -- spans ---------------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    root = Span(0, "run", 0.0, 10.0, None)
    spans = [
        root,
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        Span(3, "c", 6.0, 7.0, 0),
        Span(4, "c.inner", 6.2, 6.8, 3),  # a grandchild does not count twice
    ]
    assert self_time(spans, root) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(spans, spans[3]) == pytest.approx(1.0 - 0.6)


def test_residual_is_untraced_time_minus_layer_spans():
    root = Span(0, "run", 0.0, 9.0, None)
    spans = [root, Span(1, "load", 0.0, 4.0, 0), Span(2, "mine", 4.5, 8.0, 0),
             Span(3, "mine", 8.0, 8.5, 0), Span(4, "kernel", 5.0, 6.0, 2)]
    # layers cover 4 + 3.5 + 0.5 = 8 s of a 10 s untraced run
    assert residual(10.0, spans, root) == pytest.approx(2.0)
    assert layer_seconds(spans, root) == pytest.approx({"load": 4.0, "mine": 4.0})


def test_tracer_records_names_nesting_and_order():
    tracer = Tracer()
    with tracer.span("run"):
        with tracer.span("load"):
            pass
        with tracer.span("mine"):
            with tracer.span("kernel"):
                pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("run", None), ("load", 0), ("mine", 0), ("kernel", 2)]
    for span in tracer.spans:
        assert span.end >= span.start
    assert [r["name"] for r in tracer.to_json()] == ["run", "load", "mine", "kernel"]


# -- metric names, units and the contract -------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "core.prune_s", "serve.paced.p50-ms", "9x"])
def test_metric_name_pattern_accepts(name):
    assert METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "pai-csv/setup_s", "_x", ".x", "a b", "x" * 65])
def test_metric_name_pattern_rejects(name):
    assert not METRIC_NAME.fullmatch(name)


def test_check_metrics_demands_exactly_the_declared_set():
    declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]
    check_metrics({"a_s": metric(1.0, "s"), "b": metric(2, "count")}, declared)
    with pytest.raises(ValueError, match="missing"):
        check_metrics({"a_s": metric(1.0, "s")}, declared)
    with pytest.raises(ValueError, match="unit"):
        check_metrics({"a_s": metric(1.0, "ms"), "b": metric(2, "count")}, declared)
    with pytest.raises(ValueError):
        metric(float("nan"), "s")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_book_digest_ignores_provenance_only(tmp_path):
    header = {"record": "header", "schema_version": 1, "n_rules": 1,
              "items": [["A", "1"], ["B", "2"]], "trace": "pai", "backend": "auto"}
    rule = {"record": "rule", "antecedent_ids": [0], "consequent_ids": [1],
            "support": 0.5, "confidence": 0.9, "lift": 2.0}

    def write(name, head, body):
        path = tmp_path / name
        path.write_text(json.dumps(head) + "\n" + json.dumps(body) + "\n")
        return book_records(path)[1]

    base = write("a", header, rule)
    assert write("b", {**header, "backend": "auto:threaded"}, rule) == base
    assert write("c", header, {**rule, "lift": 2.5}) != base
    assert write("d", {**header, "items": [["A", "1"], ["B", "3"]]}, rule) != base


def test_answer_check_catches_wrong_answers_and_tolerates_reformatting():
    import zlib

    from serveload import Expected

    fired = '{"rule_id": 0, "lift": 2.0}, {"rule_id": 3, "lift": 1.5}'
    expected = object.__new__(Expected)
    expected.prefix = [b'{"type": "match_result", "id": 0,']
    expected.crc = [zlib.crc32(b'"fired": [' + fired.encode() + b"]}")]
    expected.fired_json = ["[" + fired + "]"]
    exact = b'{"type": "match_result", "id": 0, "version": 1, "fired": [' + fired.encode() + b"]}"
    assert expected.check(0, exact) is None
    respaced = json.dumps(json.loads(exact), separators=(",", ":")).encode()
    assert expected.check(0, respaced) is None
    assert expected.check(0, exact.replace(b"1.5", b"1.6")) == "wrong fired rules"
    assert expected.check(0, exact.replace(b'"id": 0', b'"id": 1')) == (
        "answer to another request")
    overloaded = b'{"type": "error", "id": 0, "error": "overloaded"}'
    assert expected.check(0, overloaded) == "error overloaded"
    assert expected.check(0, b"{truncated") == "unparseable answer"


# -- a reduced-scale run of every workload ------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
