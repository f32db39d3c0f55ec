"""Package layout: every export resolves, the verifier's import base, and the
attributes the traced benchmark run (bench/tracing.py) wraps."""

import ast
import importlib
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kbarrier
import kbarrier.cegis
import kbarrier.expr
import kbarrier.learner
import kbarrier.verifier

from conftest import naive_eval_boxes

MODULES = ["kbarrier"] + [f"kbarrier.{m.name}" for m in pkgutil.iter_modules(kbarrier.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_exports_are_checked():
    with_all = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
    assert {"kbarrier.expr", "kbarrier.learner", "kbarrier.verifier"} <= set(with_all)


def test_specs_are_exported_from_the_verifier():
    assert not hasattr(kbarrier, "Interval") and not hasattr(kbarrier.expr, "Interval")
    assert kbarrier.KBCSpec is kbarrier.verifier.KBCSpec
    assert kbarrier.SafetySpec is kbarrier.verifier.SafetySpec


def test_verifier_imports_only_expr_from_the_package():
    tree = ast.parse(Path(kbarrier.verifier.__file__).read_text())
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert relative == ["expr"]
    assert not [m for m in absolute if m.split(".")[0] == "kbarrier"]


def test_learner_reads_no_condition_constant():
    # lambda and epsilon reach the loss through the offsets of verifier.CONDITIONS
    tree = ast.parse(Path(kbarrier.learner.__file__).read_text())
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("lam", "epsilon")]
    assert read == []


def test_each_state_map_has_one_evaluation_method():
    # eval_batch, step_batch / k_step_batch and forward_batch are the numeric
    # paths; a one-state call is a one-row batch
    for cls in (kbarrier.ExprMap, kbarrier.DataDrivenModel, kbarrier.NetworkParams):
        assert not {"eval", "step", "k_step", "forward"} & set(dir(cls)), cls.__name__
    assert not hasattr(kbarrier.learner, "evolve")
    assert not hasattr(kbarrier.Verdict, "is_valid")


# owner -> the attributes bench/tracing.py patches on it, looked up where the
# package looks them up (cegis binds its layer entry points at import)
BENCHMARK_HOOKS = {
    kbarrier.cegis: ("run", "train", "loss", "sample_dataset", "augment", "verify"),
    kbarrier.learner: ("loss", "gradient"),
    kbarrier.verifier: ("verify",),
    kbarrier.expr.Tape: ("__init__", "eval_boxes", "eval_points"),
}


def test_benchmark_hook_points_exist():
    missing = [f"{owner.__name__}.{attr}" for owner, attrs in BENCHMARK_HOOKS.items()
               for attr in attrs if not callable(vars(owner).get(attr))]
    assert not missing


def test_loss_makes_no_call_to_the_module_level_gradient(monkeypatch):
    # the traced run counts one training epoch per call of learner.gradient
    learner = kbarrier.learner
    calls = [0]
    real = learner.gradient

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(learner, "gradient", counted)
    params = learner.init_params(2, 3, ("square", "sin", "cos"), seed=0)
    cfg = learner.TrainConfig(eta=(0.1, 0.0, 0.0, 0.0))
    total, breakdown = learner.loss(params, _toy_data(), cfg)
    assert calls[0] == 0
    assert total == sum(breakdown) > 0.0


def test_train_calls_the_module_level_gradient_once_per_epoch(monkeypatch):
    # the traced run wraps learner.gradient and reads `data.size` from its
    # second positional argument to count the epochs and rows of a training
    learner = kbarrier.learner
    seen, states = [], []
    real = learner.gradient

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        params = args[0]
        states.append((params.weights.copy(), params.out_bias.copy()))
        return real(*args, **kwargs)

    monkeypatch.setattr(learner, "gradient", recording)
    data = _toy_data()
    # S_kplus = S makes the k-step hinge eta[3] > 0 for every candidate
    data = replace(data, S_kplus=data.S)
    cfg = learner.TrainConfig(eta=(0.0, 0.0, 0.0, 0.01), epochs=7)
    learner.train(learner.init_params(2, 3, ("square", "sin", "cos"), seed=0), data, cfg)
    assert len(seen) == cfg.epochs
    assert all(args[1] is data and not kwargs for args, kwargs in seen)
    # one parameter object per training, whose arrays track Adam's vector
    assert all(args[0] is seen[0][0][0] for args, _ in seen)
    for (w0, c0), (w1, c1) in zip(states, states[1:]):
        assert not np.array_equal(w0, w1) and c0 != c1


def _record_derivatives(monkeypatch, kinds=("sin", "cos")):
    """Wrap the derivative rule of each of `kinds`; returns the arrays they are given."""
    seen = []
    for kind in kinds:
        build, f, df = kbarrier.learner._ACTIVATION_RULES[kind]

        def recording(z, df=df):
            seen.append(np.array(z))
            return df(z)

        monkeypatch.setitem(kbarrier.learner._ACTIVATION_RULES, kind, (build, f, recording))
    return seen


def _sin_cos_case(S_kplus_scale):
    # B = -sin(x0 + x1) + 0.1 cos(x0 + x1): below 0 at the X_I sample and
    # above lambda at the X_U one of _toy_data, so with S+ = S the loss is
    # the k-step term alone, and exactly 0 when Sk = S too
    params = kbarrier.NetworkParams(weights=[[1.0, 1.0], [1.0, 1.0]], biases=[0.0, 0.0],
                                    out_weights=[-1.0, 0.1], out_bias=0.0,
                                    activations=("sin", "cos"))
    data = _toy_data()
    return params, replace(data, S_plus=data.S, S_kplus=S_kplus_scale * data.S)


@pytest.mark.parametrize("activations", [("sin", "cos", "sin"), ("cos", "cos")])
def test_sin_cos_derivatives_only_at_rows_with_a_nonzero_coefficient(monkeypatch, activations):
    learner = kbarrier.learner
    data = _toy_data()
    params = learner.init_params(2, len(activations), activations, seed=3)
    cfg = learner.TrainConfig()
    sites = {"x": data.S, "f1": data.S_plus, "fk": data.S_kplus}
    B = {site: params.forward_batch(states) for site, states in sites.items()}
    kbc, in_i, in_u = data.kbc, data.rows["X_I"], data.rows["X_U"]
    e1 = B["f1"] - B["x"] - kbc.epsilon > 0
    e2 = B["fk"] - B["x"] > 0
    active = {"x": e1 | e2, "f1": e1, "fk": e2}
    active["x"][in_i[B["x"][in_i] > 0]] = True
    active["x"][in_u[kbc.lam - B["x"][in_u] > 0]] = True
    assert 0 < sum(map(np.count_nonzero, active.values())) < 3 * data.size
    seen = _record_derivatives(monkeypatch)
    learner.gradient(params, data, cfg)
    z = {site: states @ params.weights.T + params.biases for site, states in sites.items()}
    expected = np.concatenate([z[site][rows].ravel() for site, rows in active.items()])
    got = np.concatenate([a.ravel() for a in seen])
    assert np.array_equal(np.sort(got), np.sort(expected))


class _MatmulLog(np.ndarray):
    """An array that logs the operand positions it takes in each matmul."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(tuple(i for i, x in enumerate(inputs) if isinstance(x, _MatmulLog)))
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _MatmulLog) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("scale,zero_loss", [(1.0, True), (0.5, False)])
def test_zero_loss_epoch_makes_no_backward_matmul(monkeypatch, scale, zero_loss):
    # the forward pass multiplies states @ W.T, the backward pass t.T @ states
    learner = kbarrier.learner
    params, data = _sin_cos_case(scale)
    for name in ("S", "S_plus", "S_kplus"):
        object.__setattr__(data, name, getattr(data, name).view(_MatmulLog))
    monkeypatch.setattr(_MatmulLog, "log", [])
    seen = _record_derivatives(monkeypatch)
    g = learner.gradient(params, data, learner.TrainConfig())
    assert (g.loss == 0.0) == zero_loss
    assert _MatmulLog.log.count((0,)) == 3
    assert (_MatmulLog.log.count((1,)) == 0) == zero_loss
    assert (not seen) == zero_loss


def test_forward_batch_evaluates_no_derivative(monkeypatch):
    seen = _record_derivatives(monkeypatch, kbarrier.learner.ACTIVATIONS)
    for activations in (("square", "sin", "cos"), ("sin",) * 3, ("square",) * 2):
        params = kbarrier.learner.init_params(2, len(activations), activations, seed=0)
        assert params.forward_batch(_toy_data().S).shape == (3,)
    assert seen == []


def test_trainer_state_has_one_shape_each():
    # parameters are views of Adam's vector, the margins one tuple and the
    # region rows keyed by the regions of verifier.CONDITIONS
    learner = kbarrier.learner
    assert not hasattr(learner.NetworkParams, "_trusted")
    assert not {f"eta{i}" for i in range(1, 5)} & set(learner.TrainConfig.__dataclass_fields__)
    assert not {"idx_init", "idx_unsafe"} & set(learner.DatasetTriple.__dataclass_fields__)
    tree = ast.parse(Path(learner.__file__).read_text())
    evaluate = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_evaluate")
    literals = {node.value for node in ast.walk(evaluate) if isinstance(node, ast.Constant)}
    assert not {"X_I", "X_U"} & literals


@pytest.mark.parametrize("op", ["Sin", "Cos"])
def test_one_quadrant_analysis_per_trig_op(monkeypatch, op):
    # a centred sin or cos takes its enclosure and its partial (the other
    # function's range) from one extremum test, with or without the centred form
    expr = kbarrier.expr
    calls = [0]
    real = expr._contains_centers

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(expr, "_contains_centers", counted)
    tape = expr.Tape([getattr(expr, op)(expr.Var(0))])
    lo = np.array([[0.0], [1.0], [3.0]])
    tape.eval_boxes(lo, lo + 0.5)
    assert calls[0] == 1
    naive_eval_boxes(tape, lo, lo + 0.5)
    assert calls[0] == 2


def test_one_box_evaluator():
    # eval_boxes gives the centred enclosure itself, so no second box pass
    # or per-mode box step is left to call
    assert not hasattr(kbarrier.expr.Tape, "eval_centred")
    assert not hasattr(kbarrier.expr, "_box_step")
    tree = ast.parse(Path(kbarrier.verifier.__file__).read_text())
    called = [node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert called.count("eval_boxes") == 1 and "eval_centred" not in called


def test_verify_compiles_one_tape_per_condition_and_counts_each_frontier_box_once(monkeypatch):
    # the traced run maps the n-th Tape compiled inside `verify` to the n-th
    # condition, and counts a condition's boxes as the rows given to
    # eval_boxes; the centred form inside it must add neither.  Each
    # eval_boxes call is one run of the Tape's loop, and the search's only
    # eval_points call is the one-row re-check of a witness.
    expr = kbarrier.expr
    compiled, rows, box_runs, point_rows = [], [], [], []
    runs = [0]
    tape_cls = expr.Tape
    tape_init, eval_boxes, eval_points, run = (
        tape_cls.__init__, tape_cls.eval_boxes, tape_cls.eval_points, tape_cls._run)

    def recording_init(tape, roots):
        compiled.append(len(roots))
        tape_init(tape, roots)

    def recording_eval_boxes(tape, lo, hi):
        rows.append(len(lo))
        before = runs[0]
        out = eval_boxes(tape, lo, hi)
        box_runs.append(runs[0] - before)
        return out

    def recording_eval_points(tape, points):
        point_rows.append(len(points))
        return eval_points(tape, points)

    def counted_run(tape, *args):
        runs[0] += 1
        return run(tape, *args)

    monkeypatch.setattr(tape_cls, "__init__", recording_init)
    monkeypatch.setattr(tape_cls, "eval_boxes", recording_eval_boxes)
    monkeypatch.setattr(tape_cls, "eval_points", recording_eval_points)
    monkeypatch.setattr(tape_cls, "_run", counted_run)
    # 0.5 (x0 + x1)^2 + 0.5 (x0 - x1)^2 - 1, searched as x0^2 + x1^2 - 1
    B = kbarrier.NetworkParams(weights=[[1.0, 1.0], [1.0, -1.0]], biases=[0.0, 0.0],
                               out_weights=[0.5, 0.5], out_bias=-1.0,
                               activations=("square", "square")).to_expr()
    assert expr.collect_polynomial(B) is not B
    identity = (expr.Var(0), expr.Var(1))
    spec = kbarrier.SafetySpec(X=kbarrier.Box.from_bounds([(-2, 2)] * 2),
                               X_I=kbarrier.Box.from_bounds([(-0.3, 0.3)] * 2),
                               X_U=kbarrier.Box.from_bounds([(1.2, 1.8)] * 2))
    task = kbarrier.VerificationTask(B=B, f1_sym=identity, fk_sym=identity, spec=spec,
                                     kbc=kbarrier.KBCSpec(k=2, epsilon=0.1))
    verdict = kbarrier.verifier.verify(task)
    assert verdict.kind == "valid"
    assert compiled == [1, 1, 2, 2]
    assert sum(rows) == verdict.boxes_explored
    assert box_runs == [1] * len(rows) and runs[0] == len(rows)
    assert point_rows == []

    # 1 - x0^2 - x1^2 > 0 at X_I's midpoint: one level, and one one-row re-check
    rows.clear()
    verdict = kbarrier.verifier.verify(replace(task, B=expr.Neg(B)))
    assert (verdict.kind, verdict.condition, verdict.point) == ("counterexample", "I", (0.0, 0.0))
    assert rows == [1] and point_rows == [1] and runs[0] == len(box_runs) + 1

    # eval_boxes evaluates its centres through the Tape's own loop
    rows.clear()
    tape = expr.Tape([B])
    with monkeypatch.context() as patch:
        patch.setattr(tape_cls, "eval_points", None)
        tape.eval_boxes(np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert rows == [1]


def _toy_data():
    spec = kbarrier.SafetySpec(X=kbarrier.Box.from_bounds([(-2, 2)] * 2),
                               X_I=kbarrier.Box.from_bounds([(0.5, 1.5)] * 2),
                               X_U=kbarrier.Box.from_bounds([(-1.5, -0.5)] * 2))
    S = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 1.9]])
    return kbarrier.learner.DatasetTriple(S=S, S_plus=0.9 * S, S_kplus=0.5 * S, spec=spec,
                                          kbc=kbarrier.KBCSpec(k=2, epsilon=0.1))
