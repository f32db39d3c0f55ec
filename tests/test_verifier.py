"""Negated-condition encoding, point checks and branch-and-bound verdicts."""

import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kbarrier import (
    Box, DataDrivenModel, KBCSpec, NetworkParams, SafetySpec, VerificationTask,
    check_point, condition_exprs, verify,
)
from kbarrier import expr, verifier
from kbarrier.expr import (
    Add, Const, Exp, Mul, Neg, Tape, Var, collect_polynomial, eval_point, substitute,
)
from kbarrier.learner import init_params, mixed_sin_cos

from conftest import identity_dictionary, make_reference_polynomial, naive_eval_boxes

X1, X2 = Var(0), Var(1)

SQUARE_SPEC = SafetySpec(
    X=Box.from_bounds([(-1, 1), (-1, 1)]),
    X_I=Box.from_bounds([(-0.5, 0.5), (-0.5, 0.5)]),
    X_U=Box.from_bounds([(0.6, 0.9), (0.6, 0.9)]),
)

IDENTITY = (Var(0), Var(1))


def hn_task(highly_nonlinear, B, k, epsilon, delta=0.001):
    config, _, _, _, model = highly_nonlinear
    f1 = model.symbolic_step()
    fk = model.symbolic_k_step(k) if k > 1 else f1
    return VerificationTask(B=B, f1_sym=f1, fk_sym=fk, spec=config.safety_spec(),
                            kbc=KBCSpec(k=k, epsilon=epsilon), delta=delta)


def poly_task(polynomial, B, k, epsilon, delta=0.001):
    config, _, _, _, model = polynomial
    f1 = model.symbolic_step()
    fk = model.symbolic_k_step(k) if k > 1 else f1
    return VerificationTask(B=B, f1_sym=f1, fk_sym=fk, spec=config.safety_spec(),
                            kbc=KBCSpec(k=k, epsilon=epsilon), delta=delta)


def case_task(pipeline, B, delta=0.001):
    """B against a case study's model, at its own k and epsilon."""
    config, _, _, _, model = pipeline
    f1 = model.symbolic_step()
    fk = model.symbolic_k_step(config.k) if config.k > 1 else f1
    return VerificationTask(B=B, f1_sym=f1, fk_sym=fk, spec=config.safety_spec(),
                            kbc=config.kbc(), delta=delta)


# A highly-nonlinear candidate from the synthesis loop (seed 1, iteration 18).
# It holds, but the naive enclosures leave a delta-sat box on I.
HARVESTED_NONLINEAR = NetworkParams(
    weights=np.array([[1.3167348583575036, -1.4417210319002223],
                      [0.5392045481016496, -0.5354985172773058],
                      [0.7654847167783516, 0.1630489832175188],
                      [-0.5553715736124694, 1.403658669917318]]),
    biases=np.array([-0.01938146099529291, 0.22538357289693975, 4.086584012165625,
                     -3.055232550289903]),
    out_weights=np.array([-0.1495822798614551, -1.5896911391835926, -0.49665292916491566,
                          0.5558909196792704]),
    out_bias=0.7160774379031135,
    activations=("sin", "sin", "cos", "cos"),
)


class TestConditionExprs:
    def test_k1_evolution_sets_coincide(self, highly_nonlinear, reference_nonlinear_cert):
        task = hn_task(highly_nonlinear, reference_nonlinear_cert, k=1, epsilon=0.0)
        conditions = dict((tag, (cons, region)) for tag, cons, region in condition_exprs(task))
        (e1_cons, _), (e2_cons, _) = conditions["E1"], conditions["E2"]
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(50, 2))
        t1 = Tape([e1_cons[1][0]]).eval_points(pts)[0]
        t2 = Tape([e2_cons[1][0]]).eval_points(pts)[0]
        assert t1 == pytest.approx(t2, abs=0)

    def test_constant_negative_certificate(self, highly_nonlinear):
        task = hn_task(highly_nonlinear, Const(-1.0), k=2, epsilon=0.1)
        conditions = {tag: (cons, region) for tag, cons, region in condition_exprs(task)}
        cons_i, region_i = conditions["I"]
        expr, kind = cons_i[0]
        assert kind == "gt0"
        enclosure = Tape([expr]).eval_boxes(region_i.lo()[None, :], region_i.hi()[None, :])[0]
        assert enclosure[1][0] <= 0.0  # infeasible everywhere: B > 0 cannot hold
        cons_u, region_u = conditions["U"]
        expr_u, kind_u = cons_u[0]
        assert kind_u == "le0"
        enc_u = Tape([expr_u]).eval_boxes(region_u.lo()[None, :], region_u.hi()[None, :])[0]
        assert enc_u[1][0] <= 0.0  # satisfied everywhere in X_U

    def test_reference_conventional_counterexample_region(self, highly_nonlinear,
                                                          reference_nonlinear_cert):
        # the reported falsification range for the conventional (k=1) reading
        task = hn_task(highly_nonlinear, reference_nonlinear_cert, k=1, epsilon=0.0)
        point = [0.639, -2.0 + 2.5e-4]
        violations = dict(check_point(task, point))
        assert "E1" in violations and violations["E1"] > 0
        b = eval_point(reference_nonlinear_cert, point)
        assert b <= 0.0  # inside the gated sub-level set as well


class TestCheckPoint:
    def test_polynomial_reported_point(self, polynomial, reference_polynomial_cert):
        task = poly_task(polynomial, reference_polynomial_cert, k=1, epsilon=0.0)
        violations = dict(check_point(task, [0.0, 255.0 / 128.0]))
        assert "E1" in violations
        assert violations["E1"] > 1e-6

    def test_pendulum_reported_range_lies_in_state_space(self, pendulum):
        config, _, _, _, _ = pendulum
        point = np.array([(0.282 + 0.284) / 2, (-0.438 + -0.436) / 2])
        assert config.safety_spec().X.contains(point)

    def test_constant_certificate_unsafe_margin(self, highly_nonlinear):
        task = hn_task(highly_nonlinear, Const(-1.0), k=2, epsilon=0.1)
        for x in ([0.0, 1.0], [-0.4, 0.7], [0.5, 1.8]):
            violations = dict(check_point(task, x))
            assert violations["U"] == pytest.approx(1.0 + 0.1, rel=1e-12)

    @pytest.mark.parametrize("x", [[1.0, -1.5, 99.0], [1.0], [[1.0, -1.5]]])
    def test_rejects_a_point_of_another_shape(self, polynomial, reference_polynomial_cert, x):
        task = poly_task(polynomial, reference_polynomial_cert, k=1, epsilon=0.0)
        shapes = rf"{re.escape(str(np.shape(x)))}.*\(2,\)"
        with pytest.raises(ValueError, match=shapes):
            check_point(task, x)

    @pytest.mark.parametrize("x", [[math.nan, 0.0], [math.inf, 0.0], [-math.inf, 0.0]])
    def test_rejects_a_non_finite_point(self, polynomial, reference_polynomial_cert, x):
        # no region box contains such a point, so [] would read as "no violation"
        task = poly_task(polynomial, reference_polynomial_cert, k=1, epsilon=0.0)
        with pytest.raises(ValueError, match=re.escape(f"point {x} is not finite")):
            check_point(task, x)

    def test_conditions_apply_inside_their_regions_only(self):
        # B = x0 + 1 increases by 1 under x -> x + (1, 0); X is [-1, 1]^2
        shift = (X1 + Const(1.0), X2)
        task = VerificationTask(B=X1 + Const(1.0), f1_sym=shift, fk_sym=shift,
                                spec=SQUARE_SPEC, kbc=KBCSpec(k=2, epsilon=0.1))
        assert dict(check_point(task, [0.9, 0.0])) == pytest.approx({"E1": 0.9, "E2": 1.0})
        assert check_point(task, [1.1, 0.0]) == []


class TestVerify:
    def test_positive_definite_certificate_fails_init(self):
        B = X1 ** 2 + Const(1.0)
        task = VerificationTask(B=B, f1_sym=IDENTITY, fk_sym=IDENTITY,
                                spec=SQUARE_SPEC, kbc=KBCSpec(k=1, epsilon=0.0),
                                delta=0.001)
        verdict = verify(task)
        assert verdict.kind == "counterexample"
        assert verdict.condition == "I"
        assert verdict.margin >= 1.0
        assert SQUARE_SPEC.X_I.contains(verdict.point)

    def test_polynomial_k3_matches_grid_oracle(self, polynomial, reference_polynomial_cert):
        """Grid oracle first: the k-step condition is genuinely violated, so the
        search must return a confirmed counterexample consistent with the grid."""
        config, _, _, _, model = polynomial
        kbc = KBCSpec(k=3, epsilon=0.1)
        grid = _grid_margins(config, model, reference_polynomial_cert, kbc)
        assert grid["E2"] > 0.1  # far beyond any rounding slack
        assert max(grid["I"], grid["U"], grid["E1"]) < 0.0

        task = poly_task(polynomial, reference_polynomial_cert, k=3, epsilon=0.1)
        verdict = verify(task)
        assert verdict.kind == "counterexample"
        assert verdict.condition == "E2"
        violations = dict(check_point(task, verdict.point))
        assert violations["E2"] == pytest.approx(verdict.margin, rel=1e-9)
        assert verdict.margin <= grid["E2"] + 0.05

    def test_polynomial_conventional_counterexample(self, polynomial,
                                                    reference_polynomial_cert):
        task = poly_task(polynomial, reference_polynomial_cert, k=1, epsilon=0.0)
        verdict = verify(task)
        assert verdict.kind == "counterexample"
        assert verdict.condition == "E1"
        violations = dict(check_point(task, verdict.point))
        assert violations["E1"] > 0
        b = eval_point(reference_polynomial_cert, verdict.point)
        assert b <= 0.0  # witness honours the sub-level gate

    def test_verdict_json_round_trip(self):
        B = X1 ** 2 + Const(1.0)
        task = VerificationTask(B=B, f1_sym=IDENTITY, fk_sym=IDENTITY,
                                spec=SQUARE_SPEC, kbc=KBCSpec(k=1, epsilon=0.0))
        verdict = verify(task)
        import json
        payload = json.loads(verdict.to_json())
        assert payload["verdict"] == "counterexample"
        assert payload["condition"] == "I"
        assert "boxes_explored" in payload and "wall_time" in payload

    def test_exhausted_budget(self, highly_nonlinear, reference_nonlinear_cert):
        task = hn_task(highly_nonlinear, reference_nonlinear_cert, k=2, epsilon=0.1)
        task = VerificationTask(B=task.B, f1_sym=task.f1_sym, fk_sym=task.fk_sym,
                                spec=task.spec, kbc=task.kbc, delta=task.delta,
                                max_boxes=3)
        assert verify(task).kind == "exhausted"

    @pytest.mark.parametrize("field, value", [
        ("delta", 0.0), ("delta", -1.0), ("delta", math.nan), ("delta", math.inf),
        ("max_boxes", 0), ("max_boxes", math.nan),
    ])
    def test_invalid_search_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            VerificationTask(B=X1, f1_sym=IDENTITY, fk_sym=IDENTITY, spec=SQUARE_SPEC,
                             kbc=KBCSpec(k=1, epsilon=0.0), **{field: value})


class TestVerdictFlow:
    """How searches, budgets and NaN values turn into one verdict."""

    @staticmethod
    def square_task(B, **kwargs):
        return VerificationTask(B=B, f1_sym=IDENTITY, fk_sym=IDENTITY, spec=SQUARE_SPEC,
                                kbc=KBCSpec(k=1, epsilon=0.0), **kwargs)

    def test_nan_certificate_is_delta_sat(self):
        # 0 * exp(x0^2 + 710) is 0 * inf = NaN at every point and over every box:
        # NaN must keep a box (else "valid") and must not confirm a point
        # (else "counterexample"), so only delta-sat is left
        B = Mul(Const(0.0), Exp(Add(Mul(X1, X1), Const(710.0))))
        with np.errstate(all="ignore"):
            verdict = verify(self.square_task(B, delta=0.25))
        assert verdict.kind == "delta_sat"
        assert verdict.condition == "I"
        assert verdict.boxes_explored == 136
        assert math.isnan(verdict.margin)

    def test_budget_spent_between_searches(self):
        # I is discarded with the one box allowed; U then has no budget left
        verdict = verify(self.square_task(Const(-1.0), max_boxes=1))
        assert verdict.kind == "exhausted"
        assert verdict.condition is None
        assert verdict.boxes_explored == 1

    def test_counterexample_counts_every_search(self):
        verdict = verify(self.square_task(Const(-1.0), max_boxes=2))
        assert verdict.kind == "counterexample"
        assert verdict.condition == "U"
        assert verdict.point == (0.75, 0.75)
        assert verdict.boxes_explored == 2


def straight_line_check_point(task, x):
    """check_point with the four conditions written out by hand."""
    x = np.asarray(x, dtype=float)
    B = task.B
    tape = Tape([B, substitute(B, task.f1_sym), substitute(B, task.fk_sym)])
    b_x, b_f1, b_fk = (float(v[0]) for v in tape.eval_points(x[None, :]))
    lam, eps = task.kbc.lam, task.kbc.epsilon
    violations = []
    if task.spec.X_I.contains(x) and b_x > 0.0:
        violations.append(("I", b_x))
    if task.spec.X_U.contains(x) and b_x <= lam:
        violations.append(("U", lam - b_x))
    if b_f1 - b_x - eps > 0.0:
        violations.append(("E1", b_f1 - b_x - eps))
    if b_fk - b_x > 0.0:
        violations.append(("E2", b_fk - b_x))
    return violations


class TestCheckPointReference:
    @pytest.mark.parametrize("k, epsilon", [(1, 0.0), (2, 0.1), (3, 0.1)])
    @pytest.mark.parametrize("case", ["highly_nonlinear", "polynomial"])
    def test_agrees_with_straight_line_formulas(self, case, k, epsilon, request,
                                                reference_nonlinear_cert,
                                                reference_polynomial_cert):
        make_task = hn_task if case == "highly_nonlinear" else poly_task
        cert = (reference_nonlinear_cert if case == "highly_nonlinear"
                else reference_polynomial_cert)
        task = make_task(request.getfixturevalue(case), cert, k=k, epsilon=epsilon)
        spec = task.spec
        rng = np.random.default_rng(k)
        witness = np.asarray(verify(task).point)
        points = np.vstack([
            spec.X.sample(rng, 200), spec.X_I.sample(rng, 50), spec.X_U.sample(rng, 50),
            witness, witness + rng.uniform(-1e-3, 1e-3, (100, 2)),
            witness + rng.uniform(-1e-9, 1e-9, (50, 2)),
        ])
        points = np.clip(points, spec.X.lo(), spec.X.hi())
        seen = set()
        for x in points:
            expected = straight_line_check_point(task, x)
            assert check_point(task, x) == expected
            seen.update(tag for tag, _ in expected)
        assert "E2" in seen
        if k == 1:
            assert "E1" in seen

    def test_agrees_on_level_conditions(self):
        task = VerificationTask(B=X1 - X2, f1_sym=IDENTITY, fk_sym=IDENTITY,
                                spec=SQUARE_SPEC, kbc=KBCSpec(k=2, epsilon=0.1))
        rng = np.random.default_rng(3)
        points = np.vstack([SQUARE_SPEC.X.sample(rng, 100), SQUARE_SPEC.X_I.sample(rng, 50),
                            SQUARE_SPEC.X_U.sample(rng, 50)])
        seen = set()
        for x in points:
            expected = straight_line_check_point(task, x)
            assert check_point(task, x) == expected
            seen.update(tag for tag, _ in expected)
        assert seen == {"I", "U"}


def linear_task(B, A, spec, kbc):
    """B against x+ = A x, the closed loop over the identity dictionary."""
    model = DataDrivenModel(coeff=A, dictionary=identity_dictionary(2), sigma_min=1.0)
    f1 = model.symbolic_step()
    fk = model.symbolic_k_step(kbc.k) if kbc.k > 1 else f1
    return VerificationTask(B=B, f1_sym=f1, fk_sym=fk, spec=spec, kbc=kbc)


def verify_under(B, A, spec, kbc):
    return verify(linear_task(B, A, spec, kbc))


class TestVerifyLinear:
    B_CIRCLE = X1 ** 2 + X2 ** 2 - Const(1.0)
    SPEC = SafetySpec(
        X=Box.from_bounds([(-2, 2), (-2, 2)]),
        X_I=Box.from_bounds([(-0.3, 0.3), (-0.3, 0.3)]),
        X_U=Box.from_bounds([(1.2, 1.8), (1.2, 1.8)]),
    )

    def test_contraction_touches_at_fixed_point(self):
        """The certificate is valid (hand check: B(0.5x) - B(x) = -0.75|x|^2 <= 0,
        grid scan below), but the difference is exactly 0 at the origin, so the
        strict negation cannot be refuted by intervals at any delta: the honest
        delta-complete verdict is a delta-sat box at the fixed point."""
        verdict = verify_under(self.B_CIRCLE, 0.5 * np.eye(2), self.SPEC, KBCSpec(k=2, epsilon=0.0))
        assert verdict.kind == "delta_sat"
        assert verdict.box.contains([0.0, 0.0])
        assert verdict.margin <= 1e-5
        # dense grid: no actual violation anywhere
        axis = np.linspace(-2, 2, 401)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        b = Tape([self.B_CIRCLE]).eval_points(pts)[0]
        b1 = Tape([self.B_CIRCLE]).eval_points(pts * 0.5)[0]
        b2 = Tape([self.B_CIRCLE]).eval_points(pts * 0.25)[0]
        gate = b <= 0.0
        assert (b1 - b)[gate].max() <= 0.0
        assert (b2 - b)[gate].max() <= 0.0

    def test_identity_dynamics_equality_case(self):
        verdict = verify_under(self.B_CIRCLE, np.eye(2), self.SPEC, KBCSpec(k=2, epsilon=0.0))
        assert verdict.kind == "valid"
        assert verdict.condition is None

    def test_expansion_fails_evolution(self):
        verdict = verify_under(self.B_CIRCLE, 2.0 * np.eye(2), self.SPEC, KBCSpec(k=2, epsilon=0.0))
        assert verdict.kind == "counterexample"
        assert verdict.condition == "E1"
        assert verdict.margin > 0

    @pytest.mark.parametrize("tag, B, scale", [
        ("I", X1 ** 2 + Const(0.5), 1.0),
        ("U", X1 - X2 - Const(1.0), 1.0),
        ("E1", B_CIRCLE, 2.0),
        ("E2", B_CIRCLE, 1.01),     # one step stays within eps, two steps grow
    ])
    def test_margin_equals_violation_amount(self, tag, B, scale):
        # the margin is read from the constraint outputs; it must equal, bit
        # for bit, the violation-amount expression evaluated at the witness
        task = linear_task(B, scale * np.eye(2), self.SPEC, KBCSpec(k=2, epsilon=0.1))
        verdict = verify(task)
        assert (verdict.kind, verdict.condition) == ("counterexample", tag)
        constraints = {t: cons for t, cons, _ in condition_exprs(task)}[tag]
        margin_expr = Neg(constraints[0][0]) if tag == "U" else constraints[-1][0]
        assert verdict.margin == eval_point(margin_expr, verdict.point) > 0.0
        assert dict(check_point(task, verdict.point))[tag] == verdict.margin


class TestPruningPredicates:
    """`_may_hold` on hand-built enclosures and `_holds` at points, at the threshold 0."""

    @staticmethod
    def kept(kinds, *enclosures):
        return verifier._may_hold([(np.array(lo), np.array(hi)) for lo, hi in enclosures],
                                  kinds).tolist()

    @staticmethod
    def held(kinds, *values):
        return verifier._holds([np.array(v) for v in values], kinds).tolist()

    def test_le0_prunes_only_when_lo_is_positive(self):
        lo = [5e-324, 0.01, 1.0, 0.0, -0.0, -0.01, -1.0]
        assert self.kept(["le0"], (lo, [2.0] * 7)) == [False] * 3 + [True] * 4

    def test_gt0_prunes_only_when_hi_is_not_positive(self):
        hi = [0.0, -0.0, -0.01, -1.0, 5e-324, 0.01, 0.02, 1.0]
        assert self.kept(["gt0"], ([-2.0] * 8, hi)) == [False] * 4 + [True] * 4

    def test_nan_keeps_the_box(self):
        nan = math.nan
        assert self.kept(["le0"], ([nan, nan, 1.0], [nan, 1.0, nan])) == [True, True, False]
        assert self.kept(["gt0"], ([nan, nan, -1.0], [nan, -1.0, nan])) == [True, False, True]

    def test_every_constraint_must_allow_the_box(self):
        le0 = ([-1.0, 0.5, -1.0, 0.5], [1.0, 1.0, 1.0, 1.0])
        gt0 = ([-1.0, -1.0, -1.0, -1.0], [0.01, 0.01, 0.0, 0.0])
        assert self.kept(["le0", "gt0"], le0, gt0) == [True, False, False, False]

    def test_points_hold_on_the_closed_and_open_side(self):
        values = [-1.0, -0.0, 0.0, 5e-324, 0.01, math.nan]
        assert self.held(["le0"], values) == [True, True, True, False, False, False]
        assert self.held(["gt0"], values) == [False, False, False, True, True, False]
        assert self.held(["le0", "gt0"], [-1.0, 0.0], [0.01, math.nan]) == [True, False]


class TestSearchSoundness:
    def test_pruned_boxes_contain_no_violations(self, monkeypatch, highly_nonlinear, pendulum,
                                                reference_nonlinear_cert):
        """Every box the searches discard, point-sampled: none holds a violation.

        A chunk's boxes are discarded in one pass, by `eval_boxes`; each
        `_may_hold` call judges the boxes of the evaluation just before it.
        """
        tasks = [
            hn_task(highly_nonlinear, reference_nonlinear_cert, k=2, epsilon=0.1, delta=0.01),
            hn_task(highly_nonlinear, HARVESTED_NONLINEAR.to_expr(), k=2, epsilon=0.1),
            case_task(pendulum, init_params(2, 32, ("square",) * 32, seed=2).to_expr()),
        ]
        eval_boxes, may_hold = Tape.eval_boxes, verifier._may_hold
        evaluated, pruned = [], []

        def recording(evaluate):
            def evaluate_and_record(tape, lo, hi):
                evaluated[:] = [(lo, hi)]
                return evaluate(tape, lo, hi)
            return evaluate_and_record

        def recording_may_hold(enclosures, kinds):
            ok = may_hold(enclosures, kinds)
            (lo, hi), = evaluated
            pruned.append((lo[~ok], hi[~ok]))
            return ok

        monkeypatch.setattr(Tape, "eval_boxes", recording(eval_boxes))
        monkeypatch.setattr(verifier, "_may_hold", recording_may_hold)
        rng = np.random.default_rng(0)
        audited = 0
        for task in tasks:
            for tag, cons, region in condition_exprs(task):
                pruned.clear()
                verifier._search(tag, cons, region, task.delta, task.max_boxes)
                lo = np.vstack([lo for lo, _ in pruned])
                hi = np.vstack([hi for _, hi in pruned])
                audited += lo.shape[0]
                # 20 uniform points in each pruned box
                u = rng.uniform(size=(lo.shape[0], 20, lo.shape[1]))
                pts = (lo[:, None, :] + u * (hi - lo)[:, None, :]).reshape(-1, lo.shape[1])
                vals = Tape([c[0] for c in cons]).eval_points(pts)
                satisfied = np.ones(len(pts), dtype=bool)
                for v, (_, kind) in zip(vals, cons):
                    satisfied &= (v <= 0.0) if kind == "le0" else (v > 0.0)
                assert not satisfied.any(), tag
        assert audited > 1000

    def test_valid_implies_grid_clean(self):
        # the identity-dynamics equality case verifies valid; a dense grid
        # falsification scan must then find nothing beyond tolerance
        kbc = KBCSpec(k=2, epsilon=0.0)
        verdict = verify_under(self.b(), np.eye(2), self.SPEC_SMALL, kbc)
        assert verdict.kind == "valid"
        spec = self.SPEC_SMALL
        axis = np.linspace(-2, 2, 401)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        B = Tape([self.b()]).eval_points(pts)[0]
        in_i = np.all((pts >= spec.X_I.lo()) & (pts <= spec.X_I.hi()), axis=1)
        in_u = np.all((pts >= spec.X_U.lo()) & (pts <= spec.X_U.hi()), axis=1)
        assert B[in_i].max() <= 1e-9
        assert (0.0 - B[in_u]).max() < 1e-9
        # identity dynamics: the evolution differences vanish exactly

    SPEC_SMALL = SafetySpec(
        X=Box.from_bounds([(-2, 2), (-2, 2)]),
        X_I=Box.from_bounds([(-0.3, 0.3), (-0.3, 0.3)]),
        X_U=Box.from_bounds([(1.2, 1.8), (1.2, 1.8)]),
    )

    @staticmethod
    def b():
        return X1 ** 2 + X2 ** 2 - Const(1.0)

    def test_theorem_trajectories_stay_safe(self):
        # valid certificate for the contraction: rollouts from X_I never reach X_U
        A = 0.5 * np.eye(2)
        spec = self.SPEC_SMALL
        rng = np.random.default_rng(1)
        tape = Tape([self.b()])
        lam = 0.0
        for x0 in spec.X_I.sample(rng, 100):
            x = x0.copy()
            for _ in range(200):
                assert not spec.X_U.contains(x)
                assert float(tape.eval_points(x[None, :])[0][0]) <= lam + 1e-9
                x = A @ x


def naive_search(tag, constraints, region, delta, budget, refine=False):
    """The search as it was before the centred refinement: every box is
    judged by the naive enclosure of the box rules alone.

    With `refine`, the search as it was before `eval_boxes` gave the centred
    enclosure itself: the boxes the naive enclosures keep are judged again
    by `eval_boxes`, which re-reads their margins too.
    """
    kinds = [kind for _, kind in constraints]
    tape = Tape([e for e, _ in constraints])
    lo = region.lo()[None, :]
    hi = region.hi()[None, :]
    used = 0
    first_delta = None

    while lo.shape[0]:
        used += lo.shape[0]
        if used > budget:
            return verifier.Verdict("exhausted", tag, boxes_explored=used)

        feasible = np.empty(lo.shape[0], dtype=bool)
        margin_hi = np.empty(lo.shape[0])
        for sl in verifier._chunks(lo.shape[0]):
            enclosures = naive_eval_boxes(tape, lo[sl], hi[sl])
            feasible[sl] = verifier._may_hold(enclosures, kinds)
            margin_hi[sl] = verifier._margin(kinds[-1], *enclosures[-1])
            rows = sl.start + np.flatnonzero(feasible[sl]) if refine else []
            if len(rows):
                refined = tape.eval_boxes(lo[rows], hi[rows])
                feasible[rows] = verifier._may_hold(refined, kinds)
                margin_hi[rows] = verifier._margin(kinds[-1], *refined[-1])
        lo, hi = lo[feasible], hi[feasible]
        margin_hi = margin_hi[feasible]
        if not lo.shape[0]:
            break

        mid = 0.5 * (lo + hi)
        confirmed = np.empty(mid.shape[0], dtype=bool)
        for sl in verifier._chunks(mid.shape[0]):
            confirmed[sl] = verifier._holds(tape.eval_points(mid[sl]), kinds)
        if confirmed.any():
            point = mid[int(np.argmax(confirmed))]
            single = tape.eval_points(point[None, :])
            if verifier._holds(single, kinds)[0]:
                value = single[-1][0]
                return verifier.Verdict(
                    "counterexample", tag, point=tuple(float(v) for v in point),
                    margin=float(verifier._margin(kinds[-1], value, value)), boxes_explored=used)

        small = (hi - lo).max(axis=1) < delta
        if small.any() and first_delta is None:
            idx = int(np.argmax(small))
            first_delta = verifier.Verdict("delta_sat", tag, box=Box(lo[idx], hi[idx]),
                                           margin=float(margin_hi[idx]))
        keep = ~small
        lo, hi = lo[keep], hi[keep]
        if not lo.shape[0]:
            break

        dim = np.argmax(hi - lo, axis=1)
        mid = 0.5 * (lo + hi)
        rows = np.arange(lo.shape[0])
        hi_left = hi.copy()
        hi_left[rows, dim] = mid[rows, dim]
        lo_right = lo.copy()
        lo_right[rows, dim] = mid[rows, dim]
        lo = np.vstack([lo, lo_right])
        hi = np.vstack([hi_left, hi])

    return replace(first_delta or verifier.Verdict("valid"), boxes_explored=used)


# (case study, certificate, k, pinned (naive kind, refined kind) by condition)
PARITY_CASES = [
    ("highly_nonlinear", "reference", 2,
     {"E1": ("valid", "valid"), "E2": ("counterexample", "counterexample")}),
    ("highly_nonlinear", "reference", 1, {"E1": ("counterexample", "counterexample")}),
    ("highly_nonlinear", "harvested", 2, {"I": ("delta_sat", "valid")}),
    ("highly_nonlinear", 0, 2, {}),
    ("highly_nonlinear", 1, 2, {}),
    ("polynomial", "reference", 3, {"E2": ("counterexample", "counterexample")}),
    ("polynomial", 0, 3, {}),
    ("pendulum", 0, 2, {}),
    ("pendulum", 2, 2, {"I": ("valid", "valid")}),
]


def parity_task(request, case, certificate, k, reference_nonlinear_cert):
    """The task of one `PARITY_CASES` row."""
    pipeline = request.getfixturevalue(case)
    config = pipeline[0]
    if certificate == "reference":
        B = (reference_nonlinear_cert if case == "highly_nonlinear"
             else make_reference_polynomial())
    elif certificate == "harvested":
        B = HARVESTED_NONLINEAR.to_expr()
    else:
        B = init_params(2, config.width, config.activations, seed=certificate).to_expr()
    make_task = hn_task if case == "highly_nonlinear" else poly_task
    return (make_task(pipeline, B, k=k, epsilon=0.0 if k == 1 else 0.1)
            if case != "pendulum" else case_task(pipeline, B))


class TestRefinedSearchParity:
    """The refined search against a copy of the naive one, condition by condition.

    The refinement only discards boxes the naive enclosures keep, so its
    frontier is a subsequence of the naive frontier: every counterexample
    comes back with its point and margin, `valid` stays `valid`, and a
    delta-sat verdict can only stay delta-sat or become `valid`.
    """

    @pytest.mark.parametrize("case, certificate, k, pinned", PARITY_CASES)
    def test_same_witnesses_and_never_more_boxes(self, case, certificate, k, pinned, request,
                                                 reference_nonlinear_cert):
        task = parity_task(request, case, certificate, k, reference_nonlinear_cert)
        for tag, cons, region in condition_exprs(task):
            naive = naive_search(tag, cons, region, task.delta, task.max_boxes)
            refined = verifier._search(tag, cons, region, task.delta, task.max_boxes)
            assert refined.boxes_explored <= naive.boxes_explored, tag
            if naive.kind == "delta_sat":
                assert refined.kind in ("delta_sat", "valid"), tag
            else:
                assert (refined.kind, refined.point, refined.margin) == (
                    naive.kind, naive.point, naive.margin), tag
            assert pinned.get(tag, (naive.kind, refined.kind)) == (naive.kind, refined.kind)


def verdict_bits(v: verifier.Verdict) -> tuple:
    """Every field of a verdict, each float as its hex text, so that -0.0 and
    0.0 differ."""
    assert [f.name for f in fields(v)] == ["kind", "condition", "point", "box", "margin",
                                           "boxes_explored", "wall_time"]

    def hexes(values):
        return None if values is None else tuple(float(x).hex() for x in values)

    return (v.kind, v.condition, hexes(v.point),
            None if v.box is None else (hexes(v.box.lower), hexes(v.box.upper)),
            None if v.margin is None else v.margin.hex(), v.boxes_explored, v.wall_time.hex())


CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.jsonl"


class TestOnePassSearchParity:
    """One `eval_boxes` pass per level against the two-pass search it replaced.

    The naive enclosure is the intersection's fallback, so whatever it
    discards the intersection discards, and a row's centred enclosure does
    not depend on the rows that share its batch.  So every condition's
    verdict is the two-pass search's, bit for bit, zero signs included.
    """

    @staticmethod
    def assert_same_verdicts(task):
        for tag, cons, region in condition_exprs(task):
            two_pass = naive_search(tag, cons, region, task.delta, task.max_boxes, refine=True)
            one_pass = verifier._search(tag, cons, region, task.delta, task.max_boxes)
            assert verdict_bits(one_pass) == verdict_bits(two_pass), tag

    @pytest.mark.parametrize("case, certificate, k", [row[:3] for row in PARITY_CASES])
    def test_parity_cases(self, case, certificate, k, request, reference_nonlinear_cert):
        self.assert_same_verdicts(parity_task(request, case, certificate, k,
                                              reference_nonlinear_cert))

    @pytest.mark.parametrize("case", ["highly-nonlinear", "pendulum"])
    def test_harvested_corpus(self, case, request):
        # every benchmark candidate of the case, searched as `verify` searches it
        config, _, _, _, model = request.getfixturevalue(case.replace("-", "_"))
        f1 = model.symbolic_step()
        fk = model.symbolic_k_step(config.k) if config.k > 1 else f1
        entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
        entries = [e for e in entries if e["case"] == case]
        assert len(entries) > 10
        for entry in entries:
            B = collect_polynomial(expr.parse_expr(entry["candidate"]))
            self.assert_same_verdicts(VerificationTask(
                B=B, f1_sym=f1, fk_sym=fk, spec=config.safety_spec(), kbc=config.kbc(),
                delta=config.delta, max_boxes=config.max_boxes))


def exact_network_polynomial(params):
    """c + sum_j v_j (w_j . x + b_j)^2 of a two-input square network, expanded in rationals."""
    coefficients = {}
    for w, b, v in zip(params.weights, params.biases, params.out_weights):
        w0, w1, b, v = (Fraction(float(t)) for t in (w[0], w[1], b, v))
        # monomials as exponents of x0, x1 with trailing zeros dropped
        for key, c in (((), b * b), ((1,), 2 * b * w0), ((0, 1), 2 * b * w1),
                       ((2,), w0 * w0), ((1, 1), 2 * w0 * w1), ((0, 2), w1 * w1)):
            coefficients[key] = coefficients.get(key, 0) + v * c
    coefficients[()] += Fraction(float(params.out_bias))
    return coefficients


class TestCollectedCertificate:
    @pytest.mark.parametrize("width, seed", [(2, 0), (2, 1), (32, 0), (32, 3)])
    def test_coefficients_are_the_rounded_exact_expansion(self, width, seed):
        params = init_params(2, width, ("square",) * width, seed=seed)
        collected = collect_polynomial(params.to_expr())
        want = {k: Fraction(float(c)) for k, c in exact_network_polynomial(params).items()}
        coefficients, s, _ = expr._expand(collected)
        assert {k: Fraction(c, 2 ** s) for k, c in coefficients.items()} == {
            k: c for k, c in want.items() if c}
        assert len(Tape([collected]).ops) <= 21

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_the_network(self, seed):
        params = init_params(2, 32, ("square",) * 32, seed=seed)
        points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2000, 2))
        got = Tape([collect_polynomial(params.to_expr())]).eval_points(points)[0]
        want = params.forward_batch(points)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_other_forms_are_kept(self, reference_nonlinear_cert):
        circle = TestVerifyLinear.B_CIRCLE
        for e in (reference_nonlinear_cert, circle, Const(-1.0), X1 - X2 - Const(1.0),
                  init_params(2, 1, ("square",), seed=0).to_expr(),
                  init_params(2, 4, ("square",) * 3 + ("sin",), seed=0).to_expr(),
                  (X1 + X2) ** 8, (Const(1e200) * X1) ** 2):
            assert collect_polynomial(e) is e

    def test_verify_searches_the_collected_polynomial(self, monkeypatch, pendulum):
        B = init_params(2, 32, ("square",) * 32, seed=0).to_expr()
        collected = collect_polynomial(B)
        task = case_task(pendulum, B)
        compiled = []
        tape_init = Tape.__init__

        def recording_init(tape, roots):
            tape_init(tape, roots)
            compiled.append(tape)

        monkeypatch.setattr(Tape, "__init__", recording_init)
        verdict = verify(task)
        assert (verdict.kind, verdict.condition) == ("counterexample", "I")
        assert len(compiled) == 1 and len(compiled[0].ops) <= 21 < len(Tape([B]).ops)
        assert verdict.margin == eval_point(collected, verdict.point)
        assert dict(check_point(task, verdict.point))["I"] == pytest.approx(verdict.margin,
                                                                           rel=1e-12)


def _grid_margins(config, model, B, kbc, resolution=401):
    spec = config.safety_spec()
    axes = [np.linspace(lo, hi, resolution) for lo, hi in spec.X.bounds()]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    tape = Tape([B])
    b = tape.eval_points(pts)[0]
    nxt = model.step_batch(pts)
    b1 = tape.eval_points(nxt)[0]
    bk = tape.eval_points(model.k_step_batch(pts, kbc.k))[0]
    in_i = np.all((pts >= spec.X_I.lo()) & (pts <= spec.X_I.hi()), axis=1)
    in_u = np.all((pts >= spec.X_U.lo()) & (pts <= spec.X_U.hi()), axis=1)
    return {
        "I": float(b[in_i].max()),
        "U": float((kbc.lam - b[in_u]).max()),
        "E1": float((b1 - b - kbc.epsilon)[b <= kbc.lam].max()),
        "E2": float((bk - b)[b <= 0.0].max()),
    }
