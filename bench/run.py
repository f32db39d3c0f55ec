"""kbarrier benchmark: end-to-end synthesis and verification, and a traced per-layer run.

    python3 bench/run.py --workload synth-nonlinear --seed 0 --seconds 40 --trace 0

Run from the repository root.  The benchmark imports the package from
`src/` and times its public calls from outside; it changes nothing in the
package.  `--trace 0` measures the end-to-end metrics with no wrappers
installed.  `--trace 1` alternates untraced and traced rounds of the same
operations, reports the per-layer metrics of the traced rounds, and reports
the traced/untraced time ratio as the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller results file
(every metric, the sha256 of each synthesis report, the verdict of each
corpus certificate) goes to `.bench_out/`, and in traced runs so do the
spans.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CORPUS_PATH = BENCH_DIR / "corpus.jsonl"

# Synthesis seed of both synth workloads.  Synthesis cost depends on it far
# more than on any code change: highly-nonlinear seeds 0, 4 and 7 verify in
# 4-7 iterations (8-16 s), the other seeds up to 9 run all 20 (40-57 s).  So
# the benchmark's --seed does not choose it; it seeds the correctness oracle.
SYNTH_SEED = 0
# Set-up is repeated and its median reported; one set-up costs about 50 ms.
SETUP_REPEATS = 15
# Share of each case study's counterexample certificates that a corpus subset keeps.
SUBSET_SHARE = 0.75
# Correctness oracle: dense uniform sample of X, plus a quarter as many
# points in each of X_I and X_U.  A sampled violation must exceed
# ORACLE_TOL: the oracle evaluates k_step_batch numerically while the
# verifier evaluates the symbolic composition, and the two round differently.
ORACLE_POINTS = 20_000
ORACLE_TOL = 1e-9
HIGH_PERCENTILE = 90


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "synth" or "corpus"
    cases: tuple[str, ...]     # built-in case studies set up before measuring
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("synth-nonlinear", "synth", ("highly-nonlinear",),
             "the only built-in that verifies: training is ~95% of its time, then a "
             "113k-box valid proof; exposes trainer speed and early exit"),
    Workload("synth-polynomial", "synth", ("polynomial",),
             "tiny batches and all 20 iterations on repeated U witnesses: per-epoch "
             "Python overhead dominates and a progress guard would show here only"),
    Workload("verify-corpus", "corpus", ("highly-nonlinear", "pendulum"),
             "verification only, over candidates harvested from the loop: cheap "
             "counterexamples, a valid proof and slow delta-sat searches"),
)}

# (name, unit) of the end-to-end metrics in the final JSON line; BENCHMARK.json
# lists the same names.  A round is one synthesis run (round_s = synth_s) or
# one verification pass over the corpus subset.  Every round repeats the same
# work, so the high percentiles (synth_s.p90, verify_s.p90) are reported but
# not gated: they add drift noise and little else.
END_TO_END = (
    ("round_s", "s"), ("decided_share", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
PER_LAYER = tuple((name, unit) for names, unit in (
    (("learner.train_s",), "s"), (("learner.train_calls", "learner.epochs_run"), "count"),
    (("learner.ms_per_epoch",), "ms"), (("learner.rows_per_epoch",), "rows"),
    (("learner.dead_epoch_share",), "ratio"),
    (("verifier.verify_s",), "s"), (("verifier.calls", "verifier.boxes"), "count"),
    (("verifier.boxes_per_s",), "1/s"),
    (tuple(f"verifier.boxes.{t}" for t in ("I", "U", "E1", "E2")), "count"),
    (tuple(f"verifier.search_s.{t}" for t in ("I", "U", "E1", "E2")), "s"),
    (("verifier.self_s",), "s"), (("verifier.delta_sat_share",), "ratio"),
    (("expr.eval_boxes_s",), "s"), (("expr.eval_boxes.rows",), "rows"),
    (("expr.eval_boxes.ns_per_box_op",), "ns"), (("expr.eval_points_s",), "s"),
    (("expr.eval_points.rows",), "rows"), (("expr.tape_ops",), "count"),
    (("expr.tape_compile_s",), "s"),
    (("cegis.unchanged_candidates", "cegis.repeat_witnesses"), "count"),
    (("cegis.augment_s",), "s"), (("cegis.dataset_rows",), "rows"), (("cegis.self_s",), "s"),
    (("dynamics.build_model_s", "dynamics.compose_s"), "s"),
    (("dynamics.composed_nodes",), "count"), (("trace.overhead",), "ratio"),
) for name in names)


class BenchSetupError(RuntimeError):
    """The checkout lacks what the benchmark needs (package sources, corpus)."""


def import_kbarrier(fresh: bool = False) -> SimpleNamespace:
    """The kbarrier modules from src/; `fresh` re-executes them from scratch."""
    if not (SRC_DIR / "kbarrier" / "__init__.py").is_file():
        raise BenchSetupError(f"package sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    if fresh:
        for name in [m for m in sys.modules if m == "kbarrier" or m.startswith("kbarrier.")]:
            del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"kbarrier.{name}")
        for name in ("expr", "dynamics", "learner", "verifier", "cegis", "configs", "cli")
    })


def load_corpus(path: Path = CORPUS_PATH) -> list[dict]:
    if not path.is_file():
        raise BenchSetupError(f"corpus not found at {path}")
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def draw_subset(corpus: list[dict], seed: int) -> list[dict]:
    """Every slow certificate plus a seeded share of the counterexamples, in seeded order.

    `valid` proofs and delta-sat searches take nearly all of a pass, so each
    subset keeps all of them and the seed varies only the cheap
    counterexample certificates: SUBSET_SHARE of each case study's.
    """
    rng = np.random.default_rng(seed)
    strata: dict[tuple[str, str], list[dict]] = {}
    for entry in corpus:
        strata.setdefault((entry["case"], entry["verdict"]), []).append(entry)
    chosen: list[dict] = []
    for (_, verdict), members in sorted(strata.items()):
        take = len(members)
        if verdict == "counterexample":
            take = max(1, round(SUBSET_SHARE * take))
        chosen.extend(members[i] for i in sorted(rng.choice(len(members), take, replace=False)))
    return [chosen[i] for i in rng.permutation(len(chosen))]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Case:
    config: object
    model: object
    f1: tuple
    fk: tuple


def set_up(workload: Workload, corpus: list[dict]) -> tuple[SimpleNamespace, dict, dict, dict]:
    """Import, configs, trajectories, models and k-step maps (and corpus parsing).

    Returns the modules, the cases by name, the parsed certificates by id and
    the seconds spent in each phase.
    """
    parts = dict.fromkeys(("import", "build_model", "compose"), 0.0)
    t0 = time.perf_counter()
    kb = import_kbarrier(fresh=True)
    parts["import"] = time.perf_counter() - t0
    cases = {}
    for name in workload.cases:
        config = kb.configs.load_config(name)
        dictionary = config.dictionary_obj()
        trajectory = kb.dynamics.collect_trajectory(
            config.truth_model(), dictionary, config.x0, config.trajectory_length)
        t = time.perf_counter()
        model = kb.dynamics.build_model(trajectory, dictionary)
        parts["build_model"] += time.perf_counter() - t
        t = time.perf_counter()
        f1 = model.symbolic_step()
        fk = model.symbolic_k_step(config.k) if config.k > 1 else f1
        parts["compose"] += time.perf_counter() - t
        cases[name] = Case(config, model, f1, fk)
    certificates = {e["id"]: kb.expr.parse_expr(e["candidate"])
                    for e in corpus if e["case"] in cases}
    parts["total"] = time.perf_counter() - t0
    return kb, cases, certificates, parts


def task_for(kb, case: Case, certificate):
    config = case.config
    return kb.verifier.VerificationTask(
        B=certificate, f1_sym=case.f1, fk_sym=case.fk, spec=config.safety_spec(),
        kbc=config.kbc(), delta=config.delta, max_boxes=config.max_boxes)


# ---------------------------------------------------------------------------
# Correctness oracles
# ---------------------------------------------------------------------------

def counterexample_confirmed(kb, task, condition: str, point) -> bool:
    """check_point re-confirms the witness for the reported condition."""
    return any(tag == condition for tag, _ in kb.verifier.check_point(task, point))


def sampled_violations(kb, task, case: Case, rng: np.random.Generator) -> dict[str, int]:
    """Points of a seeded dense sample at which a `valid` certificate fails.

    Uses the point path only: Tape.eval_points on states advanced by the
    data-driven model's step_batch / k_step_batch.
    """
    spec, kbc, model = task.spec, task.kbc, case.model
    quarter = ORACLE_POINTS // 4
    points = np.vstack([spec.X.sample(rng, ORACLE_POINTS),
                        spec.X_I.sample(rng, quarter), spec.X_U.sample(rng, quarter)])
    tape = kb.expr.Tape([task.B])
    b = tape.eval_points(points)[0]
    b1 = tape.eval_points(model.step_batch(points))[0]
    bk = tape.eval_points(model.k_step_batch(points, kbc.k))[0]

    def inside(box):
        return np.all((points >= box.lo()) & (points <= box.hi()), axis=1)

    found = {
        "I": inside(spec.X_I) & (b > ORACLE_TOL),
        "U": inside(spec.X_U) & (b < kbc.lam - ORACLE_TOL),
        "E1": (b <= kbc.lam) & (b1 - b - kbc.epsilon > ORACLE_TOL),
        "E2": (b <= 0.0) & (bk - b > ORACLE_TOL),
    }
    return {tag: int(hits.sum()) for tag, hits in found.items() if hits.any()}


def verdict_problem(kb, task, case: Case, kind: str, condition, point, rng) -> str | None:
    """Why a verdict is wrong, or None if the oracles agree with it."""
    if kind == "counterexample" and not counterexample_confirmed(kb, task, condition, point):
        return f"counterexample on {condition} not re-confirmed by check_point"
    if kind == "valid":
        violations = sampled_violations(kb, task, case, rng)
        if violations:
            return f"valid verdict refuted by the point sample: {violations}"
    return None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def synthesize(kb, case_name: str, outdir: Path) -> Path:
    """One `kbarrier synthesize` run through the CLI entry point; returns report.json."""
    argv = ["synthesize", case_name, "--seed", str(SYNTH_SEED), "--output-dir", str(outdir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = kb.cli.main(argv)
    if code not in (kb.cli.EXIT_OK, kb.cli.EXIT_TERMINATED, kb.cli.EXIT_EXHAUSTED):
        raise RuntimeError(f"kbarrier {' '.join(argv)} exited with {code}")
    return outdir / "report.json"


def check_report(kb, case: Case, report: dict, rng) -> list[str]:
    """Re-confirm every counterexample and cross-check a final `valid` verdict."""
    problems = []
    for record in report["records"]:
        task = task_for(kb, case, kb.expr.parse_expr(record["candidate"]))
        problem = verdict_problem(kb, task, case, record["verdict"], record["condition"],
                                  record["counterexample"], rng)
        if problem:
            problems.append(f"iteration {record['iteration']}: {problem}")
    return problems


def report_counts(report: dict) -> dict[str, float]:
    """Loop-progress counts read from the report records."""
    records = report["records"]
    unchanged = sum(a["candidate"] == b["candidate"] for a, b in zip(records, records[1:]))
    witnesses = [tuple(r["counterexample"]) for r in records if r["counterexample"]]
    return {
        "cegis.unchanged_candidates": unchanged,
        "cegis.repeat_witnesses": len(witnesses) - len(set(witnesses)),
        "cegis.dataset_rows": records[-1]["dataset_size"] if records else 0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """Timed operations in complete rounds; traced rounds alternate with untraced ones.

    A round runs every operation of the workload once: one synthesis, or one
    pass over the corpus subset.
    """

    def __init__(self, seconds: float, tracer: Tracer | None, kb):
        self.seconds = seconds
        self.tracer = tracer
        self.kb = kb
        self.times: dict[tuple[bool, str], list[float]] = {}
        self.round_times: dict[bool, list[float]] = {False: [], True: []}
        self.traced_ops = 0
        self.first_round_rss_mb = 0.0
        self._round: list[float] = []

    def rounds(self, keys: list[str]):
        """Yield (traced?, key) round by round until the time is spent.

        A round starts only if the last one would still fit.  The first round
        always runs, and in traced mode so does the second, so both sides of
        the overhead exist.
        """
        start = time.perf_counter()
        minimum = 1 if self.tracer is None else 2
        last = 0.0
        for round_no in itertools.count():
            if round_no >= minimum and time.perf_counter() - start + last > self.seconds:
                return
            traced = self.tracer is not None and round_no % 2 == 1
            if traced:
                self.tracer.install(self.kb)
            try:
                self._round = []
                for key in keys:
                    yield traced, key
            finally:
                if traced:
                    self.tracer.uninstall()
            last = sum(self._round)
            self.round_times[traced].append(last)
            if round_no == 0:
                # later rounds repeat the same work; their peak only adds heap growth
                self.first_round_rss_mb = peak_rss_mb()

    @contextlib.contextmanager
    def timed(self, traced: bool, key: str):
        if traced:
            self.tracer.run += 1
            self.traced_ops += 1
            with self.tracer.span("op", key=key):
                t = time.perf_counter()
                yield
                elapsed = time.perf_counter() - t
        else:
            t = time.perf_counter()
            yield
            elapsed = time.perf_counter() - t
        self.times.setdefault((traced, key), []).append(elapsed)
        self._round.append(elapsed)

    def round_s(self) -> float:
        return statistics.median(self.round_times[False])

    def overhead(self) -> float:
        """Median traced round over median untraced round, minus one."""
        base = self.round_s()
        return statistics.median(self.round_times[True]) / base - 1.0 if base else 0.0


def run_synth(workload: Workload, seed: int, seconds: float, tracer, kb, cases, outdir):
    case_name = workload.cases[0]
    case = cases[case_name]
    rng = np.random.default_rng(seed)
    meas = Measurement(seconds, tracer, kb)
    ops, failures, wrong = [], [], []
    checked: dict[str, list[str]] = {}
    counts: list[dict] = []
    for n, (traced, key) in enumerate(meas.rounds(["synthesis"])):
        op = {"op": n, "traced": traced}
        ops.append(op)
        try:
            with meas.timed(traced, key):
                path = synthesize(kb, case_name, outdir / f"op{n}")
        except Exception as err:  # a failed synthesis is counted, not fatal
            op["error"] = repr(err)
            failures.append(f"op {n}: {err!r}")
            continue
        op["seconds"] = meas.times[(traced, key)][-1]
        raw = path.read_bytes()
        op["report_sha256"] = hashlib.sha256(raw).hexdigest()
        report = json.loads(raw)
        op.update(outcome=report["outcome"], iterations=report["iterations"])
        op["decided"] = sum(r["verdict"] in ("valid", "counterexample") for r in report["records"])
        op["verdicts"] = len(report["records"])
        if traced:
            counts.append(report_counts(report))
        if op["report_sha256"] not in checked:
            checked[op["report_sha256"]] = check_report(kb, case, report, rng)
        problems = list(checked[op["report_sha256"]])
        if op["report_sha256"] != ops[0].get("report_sha256"):
            problems.append("report differs from the first run of the same seed")
        wrong.extend(f"op {n}: {p}" for p in problems)
        if report["records"] and report["records"][-1]["verdict"] == "exhausted":
            problems.append("synthesis ended on an exhausted verdict")
        if problems:
            op["problems"] = problems
            failures.append(f"op {n}: {'; '.join(problems)}")
    done = [op for op in ops if "seconds" in op and not op["traced"]]
    summary = {}
    if done:
        summary = {
            "iterations": statistics.median(op["iterations"] for op in done),
            "verified_share": sum(op["outcome"] == "verified" for op in done) / len(done),
            "decided_share": sum(op["decided"] for op in done) / sum(op["verdicts"] for op in done),
        }
    layer = {}
    if tracer is not None:
        layer = {name: statistics.mean(c[name] for c in counts) if counts else 0.0
                 for name in ("cegis.unchanged_candidates", "cegis.repeat_witnesses",
                              "cegis.dataset_rows")}
    return ops, failures, wrong, summary, meas, layer


def run_corpus(workload: Workload, seed: int, seconds: float, tracer, kb, cases,
               certificates, corpus):
    subset = draw_subset(corpus, seed)
    entries = {e["id"]: e for e in subset}
    rng = np.random.default_rng(seed)
    meas = Measurement(seconds, tracer, kb)
    ops, failures, wrong = [], [], []
    verdicts: dict[str, str] = {}
    for n, (traced, key) in enumerate(meas.rounds([e["id"] for e in subset])):
        entry = entries[key]
        case = cases[entry["case"]]
        task = task_for(kb, case, certificates[key])
        op = {"op": n, "traced": traced, "id": key, "harvest_verdict": entry["verdict"]}
        ops.append(op)
        try:
            with meas.timed(traced, key):
                verdict = kb.verifier.verify(task)
        except Exception as err:  # a failed verification is counted, not fatal
            op["error"] = repr(err)
            failures.append(f"{key}: {err!r}")
            continue
        op.update(seconds=meas.times[(traced, key)][-1], verdict=verdict.kind,
                  condition=verdict.condition, boxes=verdict.boxes_explored)
        if key not in verdicts:
            verdicts[key] = verdict.kind
            problem = verdict_problem(kb, task, case, verdict.kind, verdict.condition,
                                      verdict.point, rng)
        elif verdicts[key] != verdict.kind:
            problem = f"verdict {verdict.kind} differs from the earlier {verdicts[key]}"
        else:
            problem = None
        if problem:
            wrong.append(f"{key}: {problem}")
        elif verdict.kind == "exhausted":
            problem = "verifier exhausted its box budget"
        if problem:
            op["problem"] = problem
            failures.append(f"{key}: {problem}")
    summary = {}
    if verdicts:
        summary = {
            "decided_share": sum(v in ("valid", "counterexample") for v in verdicts.values())
            / len(verdicts),
            "verdict_changes": sum(verdicts[k] != entries[k]["verdict"] for k in verdicts),
            "certificates": len(verdicts),
        }
    layer = {}
    if tracer is not None:
        layer = dict.fromkeys(("cegis.unchanged_candidates", "cegis.repeat_witnesses",
                               "cegis.dataset_rows"), 0.0)
    return ops, failures, wrong, summary, meas, layer


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full results document."""
    workload = WORKLOADS[workload_name]
    corpus = load_corpus() if workload.kind == "corpus" else []
    timings = []
    for _ in range(SETUP_REPEATS):  # only the last set-up's objects stay alive
        kb, cases, certificates, parts = set_up(workload, corpus)
        timings.append(parts)
    parts = {key: statistics.median(t[key] for t in timings) for key in parts}

    tracer = Tracer() if trace else None
    outdir = OUT_DIR / f"{workload.name}-s{seed}"
    if workload.kind == "synth":
        ops, failures, wrong, summary, meas, layer = run_synth(
            workload, seed, seconds, tracer, kb, cases, outdir)
    else:
        ops, failures, wrong, summary, meas, layer = run_corpus(
            workload, seed, seconds, tracer, kb, cases, certificates, corpus)

    times = [t for (traced, _), v in meas.times.items() if not traced for t in v]
    if times:
        # synth_s on the synth workloads, verify_s on verify-corpus
        op_name = "synth_s" if workload.kind == "synth" else "verify_s"
        summary[op_name] = statistics.median(times)
        summary[f"{op_name}.p{HIGH_PERCENTILE}"] = float(np.percentile(times, HIGH_PERCENTILE))
        summary["round_s"] = meas.round_s()
    summary.update(
        setup_s=parts["total"],
        peak_rss_mb=meas.first_round_rss_mb,
        failed_share=len(failures) / len(ops),
    )
    if tracer is not None:
        layer.update(layer_metrics(tracer.spans, max(meas.traced_ops, 1)))
        layer.update({
            "dynamics.build_model_s": parts["build_model"],
            "dynamics.compose_s": parts["compose"],
            "dynamics.composed_nodes": sum(
                sum(kb.expr.node_count(e) for e in case.fk) for case in cases.values()),
            "trace.overhead": meas.overhead(),
        })
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "synth_seed": SYNTH_SEED if workload.kind == "synth" else None,
        "correct": not wrong, "attempted": len(ops), "failed": len(failures),
        "failures": failures, "summary": summary, "setup_parts": parts,
        "per_layer": layer, "ops": ops,
        "spans": [s.to_dict() for s in tracer.spans] if tracer is not None else None,
    }


def result_line(results: dict) -> dict:
    """The final JSON line: end-to-end metrics untraced, per-layer metrics traced."""
    if results["trace"]:
        source, table = results["per_layer"], PER_LAYER
    else:
        source, table = results["summary"], END_TO_END
    return {
        "correct": results["correct"], "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {name: {"value": source.get(name), "unit": unit} for name, unit in table},
    }


SUMMARY_UNITS = {"synth_s": "s", "verify_s": "s", "round_s": "s", "iterations": "count",
                 "verified_share": "ratio", "decided_share": "ratio", "failed_share": "ratio",
                 "peak_rss_mb": "MB", "setup_s": "s"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return 2
    try:
        results = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchSetupError as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}"
    spans = results.pop("spans")
    if spans is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    Path(f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n")

    summary = results["summary"]
    print(f"workload {args.workload} seed {args.seed}: {results['attempted']} operations, "
          f"{results['failed']} failed, correct={results['correct']}")
    for name, unit in SUMMARY_UNITS.items():
        value = summary.get(name)
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        extra = summary.get(f"{name}.p{HIGH_PERCENTILE}")
        if extra is not None:
            shown += f" (p{HIGH_PERCENTILE} {extra:.6g} {unit})"
        print(f"  {name:<16} {shown}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {results['per_layer'][name]:.6g} {unit}")
    for failure in results["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
