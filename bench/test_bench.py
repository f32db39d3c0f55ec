"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py

They cover the tracer (wrappers are removed, spans nest, per-condition
attribution adds up), the corpus subset draw, the agreement of the metric
tables with BENCHMARK.json, and a tiny smoke run of every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import CONDITION_TAGS, Tracer, layer_metrics  # noqa: E402

ROOT = BENCH_DIR.parent


@pytest.fixture(scope="module")
def kb():
    return run.import_kbarrier()


def _patched_attributes(kb):
    owners = {
        kb.cegis: ("run", "train", "loss", "sample_dataset", "augment", "verify"),
        kb.learner: ("loss", "gradient"),
        kb.verifier: ("verify",),
        kb.expr.Tape: ("__init__", "eval_boxes", "eval_points"),
    }
    return {(owner, attr): getattr(owner, attr) for owner, attrs in owners.items()
            for attr in attrs}


def _tiny_synthesis(kb, tracer):
    """Two loop iterations of the polynomial case with short training, traced as one op."""
    config = kb.configs.builtin_config("polynomial")
    cfg = config.cegis_config(0)
    cfg = replace(cfg, max_iterations=2, train=replace(cfg.train, epochs=40))
    trajectory = kb.dynamics.collect_trajectory(
        config.truth_model(), config.dictionary_obj(), config.x0, config.trajectory_length)
    model = kb.dynamics.build_model(trajectory, config.dictionary_obj())
    net = kb.learner.init_params(config.n, config.width, config.activations, 0)
    tracer.install(kb)
    try:
        with tracer.span("op"):
            return kb.cegis.run(config.safety_spec(), model, config.kbc(), net, cfg,
                                delta=config.delta)
    finally:
        tracer.uninstall()


def _valid_corpus_task():
    """A corpus certificate whose verdict is `valid`, so all four searches run.

    set_up re-imports the package, so the task comes with its own modules.
    """
    entry = next(e for e in run.load_corpus() if e["verdict"] == "valid")
    workload = run.Workload("one-case", "corpus", (entry["case"],), "")
    kb, cases, certificates, _ = run.set_up(workload, [entry])
    return kb, run.task_for(kb, cases[entry["case"]], certificates[entry["id"]])


def test_wrappers_removed_after_traced_run(kb):
    before = _patched_attributes(kb)
    tracer = Tracer()
    _tiny_synthesis(kb, tracer)
    assert tracer.spans, "the traced run recorded nothing"
    after = _patched_attributes(kb)
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_with_correct_parents(kb):
    tracer = Tracer()
    report = _tiny_synthesis(kb, tracer)
    spans = tracer.spans
    # the data-driven model evaluates its dictionary through a Tape too
    model_steps = {"learner.sample_dataset", "cegis.augment"}
    expected_parent = {
        "cegis.run": {"op"},
        "learner.train": {"cegis.run"}, "learner.loss": {"cegis.run"},
        "learner.sample_dataset": {"cegis.run"}, "cegis.augment": {"cegis.run"},
        "verifier.verify": {"cegis.run"}, "verifier.search": {"verifier.verify"},
        "expr.tape_compile": {"verifier.search"},
        "expr.eval_boxes": {"verifier.search"},
        "expr.eval_points": {"verifier.search"} | model_steps,
    }
    assert spans[0].name == "op" and spans[0].parent is None
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.name in expected_parent[span.name], (span.name, parent.name)
        assert parent.start <= span.start <= span.end <= parent.end
        assert span.run == parent.run
    names = [s.name for s in spans]
    assert names.count("verifier.verify") == report.iterations
    assert names.count("learner.train") == report.iterations
    epochs = sum(s.attrs["epochs"] for s in spans if s.name == "learner.train")
    assert epochs == 40 * report.iterations


def test_condition_attribution_sums_to_verifier_boxes():
    kb2, task = _valid_corpus_task()
    tracer = Tracer()
    tracer.install(kb2)
    try:
        with tracer.span("op"):
            verdict = kb2.verifier.verify(task)
    finally:
        tracer.uninstall()
    assert verdict.kind == "valid"
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["verifier.boxes"] == verdict.boxes_explored
    per_condition = [metrics[f"verifier.boxes.{tag}"] for tag in CONDITION_TAGS]
    assert all(per_condition)
    assert sum(per_condition) == metrics["verifier.boxes"]
    assert [s.attrs["tag"] for s in tracer.spans if s.name == "verifier.search"] == list(
        CONDITION_TAGS)


def test_subset_is_seeded_and_stratified():
    corpus = run.load_corpus()
    a, b, c = run.draw_subset(corpus, 3), run.draw_subset(corpus, 3), run.draw_subset(corpus, 4)
    assert [e["id"] for e in a] == [e["id"] for e in b]
    assert [e["id"] for e in a] != [e["id"] for e in c]

    def mix(subset):
        return sorted((e["case"], e["verdict"]) for e in subset)

    assert mix(a) == mix(c)
    assert len({e["id"] for e in a}) == len(a)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_smoke_run(workload):
    result = _smoke(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    result = _smoke("verify-corpus", 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert result["metrics"]["verifier.calls"]["value"] == 1.0
    assert result["metrics"]["learner.epochs_run"]["value"] == 0.0
