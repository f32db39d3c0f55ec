"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 4 checks the verifier's refutation of the
bundled reference polynomial certificate at k=3 against two independent
oracles: a dense grid over the data-driven model, and exact rational
re-evaluation of the witness on the truth dynamics.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from kbarrier import (
    Box, KBCSpec, TrainConfig, VerificationTask,
    build_model, check_point, eval_interval, eval_point, gradient,
    init_params, loss, run, verify,
)
from kbarrier.expr import Add, Const, Mul, Neg, Pow, Sub, Tape, Var, parse_expr
from kbarrier.verifier import SafetySpec

import conftest as helpers
from test_learner import manual_triple, toy_spec, _near_kink


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} {detail}")


# ---------------------------------------------------------------------------
# 1. Data-driven model exactness on all three case studies
# ---------------------------------------------------------------------------

def test_criterion_1_model_exactness(highly_nonlinear, polynomial, pendulum):
    t0 = time.perf_counter()
    worst = {}
    for bundle in (highly_nonlinear, polynomial, pendulum):
        config, truth, _, trajectory, model = bundle
        rng = np.random.default_rng(0)
        spec = config.safety_spec()
        pts = spec.X.sample(rng, 1000)
        worst[config.name] = float(np.abs(model.step_batch(pts) - truth.eval_batch(pts)).max())
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-7 and elapsed < 5.0
    report(1, "model exactness", ok, f"errors={worst} time={elapsed:.2f}s")
    assert max(worst.values()) <= 1e-7
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Linear system matrix recovery from n+1 samples
# ---------------------------------------------------------------------------

def test_criterion_2_linear_recovery():
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        n = 2 if case < 50 else 3
        rng = np.random.default_rng(1000 + case)
        A = rng.uniform(-1.0, 1.0, (n, n))
        x = rng.uniform(-1.0, 1.0, n)
        states = [x]
        for _ in range(n + 1):
            states.append(A @ states[-1])
        dictionary = helpers.identity_dictionary(n)
        model = build_model(states, dictionary)
        worst = max(worst, float(np.abs(model.coeff - A).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(2, "linear recovery", ok, f"worst={worst:.2e} time={elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. Reference certificates are falsified under the conventional reading
# ---------------------------------------------------------------------------

def _task(bundle, B, k, epsilon):
    config, _, _, _, model = bundle
    f1 = model.symbolic_step()
    fk = model.symbolic_k_step(k) if k > 1 else f1
    return VerificationTask(B=B, f1_sym=f1, fk_sym=fk, spec=config.safety_spec(),
                            kbc=KBCSpec(k=k, epsilon=epsilon), delta=0.001)


def test_criterion_3_conventional_falsification(highly_nonlinear, polynomial,
                                                reference_nonlinear_cert,
                                                reference_polynomial_cert):
    t0 = time.perf_counter()
    task_nl = _task(highly_nonlinear, reference_nonlinear_cert, 1, 0.0)
    verdict_nl = verify(task_nl)
    nl_ok = verdict_nl.kind == "counterexample"
    nl_margin = 0.0
    if nl_ok:
        violations = dict(check_point(task_nl, verdict_nl.point))
        nl_margin = violations.get(verdict_nl.condition, 0.0)
    t_nl = time.perf_counter() - t0

    t0 = time.perf_counter()
    task_poly = _task(polynomial, reference_polynomial_cert, 1, 0.0)
    verdict_poly = verify(task_poly)
    poly_ok = verdict_poly.kind == "counterexample"
    point_violations = dict(check_point(task_poly, [0.0, 255.0 / 128.0]))
    e1_margin = point_violations.get("E1", 0.0)
    t_poly = time.perf_counter() - t0

    ok = (nl_ok and nl_margin > 1e-6 and poly_ok and e1_margin > 1e-6
          and t_nl < 60 and t_poly < 60)
    report(3, "reference-certificate falsification", ok,
           f"nonlinear={verdict_nl.kind}@{verdict_nl.point} margin={nl_margin:.3e} "
           f"({t_nl:.1f}s); polynomial={verdict_poly.kind}, "
           f"E1 at [0, 255/128] margin={e1_margin:.3e} ({t_poly:.1f}s)")
    assert nl_ok and nl_margin > 1e-6
    assert poly_ok
    assert e1_margin > 1e-6
    assert t_nl < 60 and t_poly < 60


# ---------------------------------------------------------------------------
# 4. Reference polynomial certificate refuted under its own k = 3 reading
# ---------------------------------------------------------------------------

def _grid_oracle(config, model, B, kbc, resolution=401):
    """Dense-grid worst-case violation margin of each condition (positive =
    violated).  Built before and independently of the branch-and-bound run."""
    spec = config.safety_spec()
    axes = [np.linspace(lo, hi, resolution) for lo, hi in spec.X.bounds()]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    tape = Tape([B])
    b = tape.eval_points(pts)[0]
    b1 = tape.eval_points(model.step_batch(pts))[0]
    bk = tape.eval_points(model.k_step_batch(pts, kbc.k))[0]
    in_i = np.all((pts >= spec.X_I.lo()) & (pts <= spec.X_I.hi()), axis=1)
    in_u = np.all((pts >= spec.X_U.lo()) & (pts <= spec.X_U.hi()), axis=1)
    return {
        "I": float(b[in_i].max()),
        "U": float((kbc.lam - b[in_u]).max()),
        "E1": float((b1 - b - kbc.epsilon)[b <= kbc.lam].max()),
        "E2": float((bk - b)[b <= 0.0].max()),
    }


def _exact_value(e, x):
    """Evaluate a polynomial expression at x in exact rational arithmetic.

    Each float constant is taken at its exact binary value, so the result is
    the true real-number value of the expression as stored; independent of
    `Tape` and of floating-point rounding.
    """
    if isinstance(e, Var):
        return x[e.index]
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Add):
        return _exact_value(e.left, x) + _exact_value(e.right, x)
    if isinstance(e, Sub):
        return _exact_value(e.left, x) - _exact_value(e.right, x)
    if isinstance(e, Mul):
        return _exact_value(e.left, x) * _exact_value(e.right, x)
    if isinstance(e, Neg):
        return -_exact_value(e.operand, x)
    if isinstance(e, Pow):
        return _exact_value(e.base, x) ** e.exponent
    raise TypeError(f"{type(e).__name__} is outside the polynomial subset")


def test_criterion_4_reference_polynomial_k_inductive(polynomial,
                                                      reference_polynomial_cert):
    """The bundled reference certificate relaxes the one-step condition that
    criterion 3 refutes at k=1, but fails the k=3 decrease condition E2: the
    verifier must return an E2 counterexample, the dense grid must agree, and
    the witness must re-confirm on the truth dynamics in exact rational
    arithmetic."""
    config, _, _, _, model = polynomial
    B = reference_polynomial_cert
    kbc = KBCSpec(k=3, epsilon=0.1)
    t0 = time.perf_counter()
    grid = _grid_oracle(config, model, B, kbc)
    task = _task(polynomial, B, kbc.k, kbc.epsilon)
    verdict = verify(task)
    elapsed = time.perf_counter() - t0

    # Searches run I, U, E1, E2 and return at the first witness, so an E2
    # counterexample means the I, U and E1 searches found none.
    found_e2 = verdict.kind == "counterexample" and verdict.condition == "E2"
    # Re-confirm the witness on the truth dynamics in exact rational
    # arithmetic: in X, inside {B <= 0}, and B(f^k x) - B(x) > 0.
    exact_margin, witness_ok = None, False
    if found_e2:
        truth_step = [parse_expr(text) for text in config.truth_step]
        x = [Fraction(v) for v in verdict.point]
        y = x
        for _ in range(kbc.k):
            y = [_exact_value(f, y) for f in truth_step]
        b_x, b_y = _exact_value(B, x), _exact_value(B, y)
        exact_margin = float(b_y - b_x)
        witness_ok = (b_x <= 0 and b_y > b_x
                      and config.safety_spec().X.contains(np.array(verdict.point)))
    grid_agrees = (max(grid["I"], grid["U"], grid["E1"]) <= 0.0 and grid["E2"] > 0.0)
    ok = (found_e2 and grid_agrees and witness_ok
          and abs(exact_margin - verdict.margin) <= 1e-6
          and verdict.margin <= grid["E2"] + 1e-6 and elapsed < 300)
    report(4, "reference polynomial certificate, k=3", ok,
           f"verdict={verdict.kind} condition={verdict.condition} "
           f"point={verdict.point} margin={verdict.margin} "
           f"exact margin={exact_margin} "
           f"grid-oracle margins={grid} time={elapsed:.1f}s")
    assert elapsed < 300
    assert found_e2, f"expected an E2 counterexample, got {verdict}"
    assert max(grid["I"], grid["U"], grid["E1"]) <= 0.0
    assert grid["E2"] > 0.0
    assert verdict.margin <= grid["E2"] + 1e-6
    assert witness_ok, f"witness {verdict.point} does not re-confirm exactly"
    assert abs(exact_margin - verdict.margin) <= 1e-6


# ---------------------------------------------------------------------------
# 5 and 6. End-to-end synthesis on the highly nonlinear study + trajectory safety
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthesis_result(highly_nonlinear):
    config, _, _, _, model = highly_nonlinear
    spec, kbc = config.safety_spec(), config.kbc()
    t0 = time.perf_counter()
    for seed in range(10):
        template = init_params(2, config.width, config.activations, seed)
        t_seed = time.perf_counter()
        result = run(spec, model, kbc, template, config.cegis_config(seed),
                     delta=config.delta, max_boxes=config.max_boxes)
        seed_time = time.perf_counter() - t_seed
        if result.verified and seed_time < 1800:
            return seed, result, seed_time, time.perf_counter() - t0
    return None, None, 0.0, time.perf_counter() - t0


def test_criterion_5_end_to_end_synthesis(highly_nonlinear, synthesis_result):
    config, _, _, _, model = highly_nonlinear
    seed, result, seed_time, total_time = synthesis_result
    ok = result is not None and result.verified and result.iterations <= 20
    detail = f"no seed in 0..9 verified (total {total_time:.0f}s)"
    if ok:
        task = VerificationTask(B=result.certificate, f1_sym=model.symbolic_step(),
                                fk_sym=model.symbolic_k_step(config.k),
                                spec=config.safety_spec(), kbc=config.kbc(),
                                delta=config.delta, max_boxes=config.max_boxes)
        reverify = verify(task)
        grid = _grid_oracle(config, model, result.certificate, config.kbc())
        grid_clean = max(grid.values()) <= 1e-9
        ok = reverify.kind == "valid" and grid_clean
        detail = (f"seed={seed} iterations={result.iterations} "
                  f"re-verify={reverify.kind} grid margins={grid} "
                  f"time={seed_time:.0f}s")
    report(5, "end-to-end synthesis", ok, detail)
    assert result is not None and result.verified
    assert result.iterations <= 20
    assert seed_time < 1800
    assert ok


def test_criterion_6_trajectory_safety(highly_nonlinear, synthesis_result):
    """Rollouts from the initial region never reach the unsafe region, and the
    certificate value stays below (k-1)*eps while the state remains in X (the
    certificate constrains nothing once a trajectory has left the state box,
    and these trajectories do drift out of X well before 200 steps)."""
    config, _, _, _, model = highly_nonlinear
    seed, result, _, _ = synthesis_result
    assert result is not None and result.verified, "needs the criterion-5 certificate"
    spec, kbc = config.safety_spec(), config.kbc()
    tape = Tape([result.certificate])
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    starts = spec.X_I.sample(rng, 100)
    worst_b = -np.inf
    entered_unsafe = False
    states = starts
    for _ in range(200):
        b = tape.eval_points(states)[0]
        in_x = np.all((states >= spec.X.lo()) & (states <= spec.X.hi()), axis=1)
        if in_x.any():
            worst_b = max(worst_b, float(b[in_x].max()))
        in_u = np.all((states >= spec.X_U.lo()) & (states <= spec.X_U.hi()), axis=1)
        entered_unsafe = entered_unsafe or bool(in_u.any())
        states = model.step_batch(states)
    elapsed = time.perf_counter() - t0
    ok = (not entered_unsafe) and worst_b <= kbc.lam + 1e-9 and elapsed < 10
    report(6, "trajectory safety", ok,
           f"max B in X={worst_b:.4f} (bound {kbc.lam}) unsafe-entered={entered_unsafe} "
           f"time={elapsed:.1f}s")
    assert not entered_unsafe
    assert worst_b <= kbc.lam + 1e-9
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 7. Analytic gradients against central finite differences
# ---------------------------------------------------------------------------

def test_criterion_7_gradient_correctness():
    spec = toy_spec()
    kbc = KBCSpec(k=2, epsilon=0.1)
    cfg = TrainConfig(eta=(0.05, 0.01, 0.01, 0.01))
    step = 1e-5
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        data = manual_triple(spec, np.random.default_rng(seed), kbc=kbc)
        net = init_params(2, 3, ("square", "sin", "cos"), seed=seed)
        if _near_kink(net, data, cfg, 1e-3):
            continue
        analytic = gradient(net, data, cfg).flat
        flat = net.flat()
        for idx, unit in enumerate(np.eye(flat.size)):
            plus = net.with_flat(flat + step * unit)
            minus = net.with_flat(flat - step * unit)
            fd = (loss(plus, data, cfg)[0] - loss(minus, data, cfg)[0]) / (2 * step)
            scale = max(abs(fd), abs(analytic[idx]), 1.0)
            worst = max(worst, abs(analytic[idx] - fd) / scale)
        checked += 1
    ok = worst <= 1e-5
    report(7, "gradient correctness", ok, f"worst relative error={worst:.2e}")
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# 8. Interval enclosures never exclude an in-box sample
# ---------------------------------------------------------------------------

def test_criterion_8_interval_soundness():
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        e, box = helpers.random_finite_pair(rng)
        lo, hi = eval_interval(e, box)
        for x in box.sample(rng, 5):
            v = eval_point(e, x)
            if not (lo <= v <= hi):
                violations += 1
    ok = violations == 0
    report(8, "interval soundness", ok, f"violations={violations}/5000 samples")
    assert violations == 0


# ---------------------------------------------------------------------------
# 9. k = 1 reduction agrees with an independently coded conventional verifier
# ---------------------------------------------------------------------------

def _conventional_search(bounds, constraints, delta):
    """Depth-first conventional-certificate search, written separately from the
    production engine: recursive bisection over Box objects with scalar
    interval evaluation."""
    box = Box.from_bounds(bounds)
    for e, kind in constraints:
        lo, hi = eval_interval(e, box)
        if kind == "le0" and lo > 0.0:
            return "empty"
        if kind == "gt0" and hi <= 0.0:
            return "empty"
    mid = box.midpoint()
    satisfied = True
    for e, kind in constraints:
        v = eval_point(e, mid)
        satisfied &= (v <= 0.0) if kind == "le0" else (v > 0.0)
    if satisfied:
        return "witness"
    widths = box.widths()
    if widths.max() < delta:
        return "undecided"
    dim = int(np.argmax(widths))
    lo, hi = bounds[dim]
    left = list(bounds)
    right = list(bounds)
    left[dim] = (lo, 0.5 * (lo + hi))
    right[dim] = (0.5 * (lo + hi), hi)
    outcome = "empty"
    for half in (left, right):
        r = _conventional_search(half, constraints, delta)
        if r == "witness":
            return "witness"
        if r == "undecided":
            outcome = "undecided"
    return outcome


def _conventional_classify(B, f1, spec, delta=0.002):
    substituted = [(spec.X_I.bounds(), [(B, "gt0")]),
                   (spec.X_U.bounds(), [(B, "le0")])]
    from kbarrier import substitute
    B_next = substitute(B, f1)
    substituted.append((spec.X.bounds(), [(B, "le0"), (Sub(B_next, B), "gt0")]))
    saw_undecided = False
    for bounds, constraints in substituted:
        r = _conventional_search(bounds, constraints, delta)
        if r == "witness":
            return "counterexample"
        if r == "undecided":
            saw_undecided = True
    return "undecided" if saw_undecided else "valid"


def test_criterion_9_conventional_reduction_equivalence():
    spec = SafetySpec(
        X=Box.from_bounds([(-1, 1), (-1, 1)]),
        X_I=Box.from_bounds([(-0.8, -0.4), (-0.8, -0.4)]),
        X_U=Box.from_bounds([(0.4, 0.8), (0.4, 0.8)]),
    )
    # affine drift with its rest point outside X, so strictly valid instances
    # exist (linear certificates decrease along the flow with a real margin)
    x1, x2 = Var(0), Var(1)
    f1 = (Const(0.9) * x1 - Const(0.3), Const(0.9) * x2 - Const(0.3))
    kbc = KBCSpec(k=1, epsilon=0.0)
    compared = 0
    seed = 0
    outcomes = []
    while compared < 10:
        seed += 1
        rng = np.random.default_rng(seed)
        if seed % 2:
            a, b = rng.uniform(0.5, 1.5, 2)
            c = rng.uniform(-0.3, 0.8)
            B = Const(a) * x1 + Const(b) * x2 + Const(c)
        else:
            a, b = rng.uniform(0.3, 1.5, 2)
            p = rng.uniform(-1.0, 1.0, 2)
            c = rng.uniform(-1.0, 0.5)
            B = (Const(a) * (x1 - Const(p[0])) ** 2
                 + Const(b) * (x2 - Const(p[1])) ** 2 + Const(c))
        independent = _conventional_classify(B, list(f1), spec)
        if independent == "undecided":
            continue
        task = VerificationTask(B=B, f1_sym=f1, fk_sym=f1, spec=spec, kbc=kbc,
                                delta=0.002)
        mine = verify(task)
        if mine.kind not in ("valid", "counterexample"):
            continue
        outcomes.append((independent, mine.kind))
        assert mine.kind == independent, f"instance seed={seed}: {mine.kind} vs {independent}"
        compared += 1
    kinds = {o[0] for o in outcomes}
    ok = compared == 10 and len(kinds) == 2
    report(9, "conventional reduction equivalence", ok,
           f"10/10 agree; outcomes seen: {sorted(kinds)}")
    assert compared == 10
    assert kinds == {"valid", "counterexample"}
