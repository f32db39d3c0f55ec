"""Expression evaluation, interval soundness, substitution and text form."""

import math
import warnings

import numpy as np
import pytest

import kbarrier.expr
from kbarrier import (
    KBCSpec, VerificationTask, condition_exprs, eval_interval, eval_point, format_expr,
    parse_expr, substitute,
)
from kbarrier.expr import (
    Add, Box, Const, Cos, Exp, Interval, Mul, Neg, Pow, Sin, Sub, Tape, Var,
    lin_comb, max_var_index, node_count, _pad_out,
)
from kbarrier.verifier import _margin_expr

from conftest import random_expr, random_finite_pair

X1, X2 = Var(0), Var(1)


class TestEvalPoint:
    def test_product(self):
        assert eval_point(X1 * X2, [0.5, -2.0]) == -1.0

    def test_pythagorean_identity(self):
        e = Sin(X1) ** 2 + Cos(X1) ** 2
        assert eval_point(e, [0.7, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_exp_of_zero(self):
        assert eval_point(Exp(Neg(X1)), [0.0, 0.0]) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="variable index out of range"):
            eval_point(Var(2), [1.0, 2.0])


class TestEvalInterval:
    def test_even_power_is_tight(self):
        iv = eval_interval(X1 ** 2, Box.from_bounds([(-1.0, 2.0)]))
        assert iv.lo == pytest.approx(0.0, abs=1e-12)
        assert iv.hi == pytest.approx(4.0, abs=1e-12)
        assert iv.lo > -1.0  # not the naive [-2, 4]

    def test_sin_interior_max(self):
        iv = eval_interval(Sin(X1), Box.from_bounds([(0.0, math.pi)]))
        assert iv.hi == 1.0
        assert iv.lo == pytest.approx(0.0, abs=1e-12)

    def test_bilinear_containment(self):
        # oracle: random in-box samples must land inside the enclosure
        e = X1 * X2 - X1
        box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
        iv = eval_interval(e, box)
        assert iv.lo <= -1.0 + 1e-12 and iv.hi >= 1.0 - 1e-12
        rng = np.random.default_rng(7)
        for p in box.sample(rng, 100):
            assert iv.contains(eval_point(e, p))

    def test_cos_full_period(self):
        iv = eval_interval(Cos(X1), Box.from_bounds([(0.0, 7.0)]))
        assert iv.lo == -1.0 and iv.hi == 1.0

    def test_overflow_raises_only_value_error(self):
        box = Box.from_bounds([(0.0, 10.0), (0.0, 1.0)])
        # exp(e^10) overflows, and 0 * inf then gives NaN bounds
        overflowing = [Exp(Exp(X1)), Mul(Exp(Exp(X1)), Sub(X2, X2))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in overflowing:
                with pytest.raises(ValueError, match="must be finite"):
                    eval_interval(e, box)

    def test_odd_power_monotone(self):
        iv = eval_interval(X1 ** 3, Box.from_bounds([(-2.0, 1.5)]))
        assert iv.lo == pytest.approx(-8.0, rel=1e-12)
        assert iv.hi == pytest.approx(3.375, rel=1e-12)


class TestSubstitute:
    def test_renaming(self):
        e = substitute(X1 + Const(1.0), [X2])
        assert eval_point(e, [99.0, 4.0]) == 5.0
        assert max_var_index(e) == 1

    def test_composition_oracle(self):
        e = substitute(X1 ** 2, [X1 + X2])
        rng = np.random.default_rng(11)
        for p in rng.uniform(-3, 3, size=(50, 2)):
            assert eval_point(e, p) == pytest.approx((p[0] + p[1]) ** 2, rel=1e-12)

    def test_sin_of_constant(self):
        e = substitute(Sin(X1), [Const(0.0)])
        for p in ([0.0, 0.0], [5.0, -3.0]):
            assert eval_point(e, p) == 0.0

    def test_missing_replacement(self):
        with pytest.raises(ValueError, match="missing replacement"):
            substitute(X1 + X2, [X1])

    def test_identity_returns_same_object(self):
        e = Sin(X1) * X2 + Const(2.0)
        assert substitute(e, [Var(0), Var(1)]) is e

    def test_general_composition_law(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            e = random_expr(rng, 2, 3)
            r0 = random_expr(rng, 2, 2)
            r1 = random_expr(rng, 2, 2)
            composed = substitute(e, [r0, r1])
            for p in rng.uniform(-1.5, 1.5, size=(5, 2)):
                with np.errstate(over="ignore", invalid="ignore"):
                    inner = [eval_point(r0, p), eval_point(r1, p)]
                    if not all(math.isfinite(v) for v in inner):
                        continue
                    lhs = eval_point(composed, p)
                    rhs = eval_point(e, inner)
                if not (math.isfinite(lhs) and math.isfinite(rhs)):
                    continue
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestIntervalProperties:
    def test_soundness_sampling(self):
        # in-box point evaluations always land inside the enclosure
        rng = np.random.default_rng(0)
        for _ in range(1000):
            e, box = random_finite_pair(rng)
            iv = eval_interval(e, box)
            x = box.sample(rng, 1)[0]
            v = eval_point(e, x)
            assert iv.lo <= v <= iv.hi

    def test_split_hull_never_widens(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            e, box = random_finite_pair(rng)
            whole = eval_interval(e, box)
            dim = int(np.argmax(box.widths()))
            mid = box.intervals[dim].mid
            lo_b = box.bounds()
            hi_b = box.bounds()
            lo_b[dim] = (lo_b[dim][0], mid)
            hi_b[dim] = (mid, hi_b[dim][1])
            try:
                left = eval_interval(e, Box.from_bounds(lo_b))
                right = eval_interval(e, Box.from_bounds(hi_b))
            except ValueError:
                continue
            hull = left.hull(right)
            assert hull.lo >= whole.lo and hull.hi <= whole.hi

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)


class TestTextForm:
    def test_documented_example(self):
        text = "(add (mul (var 0) (var 1)) (const 1.0))"
        e = parse_expr(text)
        assert format_expr(e) == text
        assert eval_point(e, [2.0, 3.0]) == 7.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = random_expr(rng, 3, 4)
            text = format_expr(e)
            back = parse_expr(text)
            assert format_expr(back) == text
            p = rng.uniform(-1, 1, size=3)
            with np.errstate(over="ignore", invalid="ignore"):
                a, b = eval_point(e, p), eval_point(back, p)
            if math.isfinite(a):
                assert a == b

    def test_deep_chain_round_trip(self):
        # no pass over the expression may recurse once per level
        depth = 10_000
        text = "(neg " * depth + "(var 0)" + ")" * depth
        e = parse_expr(text)
        assert format_expr(e) == text
        assert node_count(e) == depth + 1 and max_var_index(e) == 0
        assert eval_point(e, [1.5]) == 1.5
        assert eval_point(substitute(e, [X2]), [0.0, -2.0]) == -2.0

    def test_pow_round_trip(self):
        text = "(pow (sub (var 0) (const 0.5)) 3)"
        assert format_expr(parse_expr(text)) == text

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_expr("(div (var 0) (var 1))")
        with pytest.raises(ValueError):
            parse_expr("(add (var 0) (var 1)) trailing")
        with pytest.raises(ValueError):
            parse_expr("")
        for truncated in ("(add (var 0)", "(var", "(", "(pow (var 0)", "(const"):
            with pytest.raises(ValueError, match="unexpected end of expression text"):
                parse_expr(truncated)


class TestGrammar:
    def test_pow_exponent_validation(self):
        with pytest.raises(ValueError):
            Pow(X1, 0)
        with pytest.raises(ValueError):
            Pow(X1, -2)

    def test_constant_folding(self):
        e = Const(2.0) + Const(3.0)
        assert isinstance(e, Const) and e.value == 5.0
        assert isinstance(-(Const(4.0)), Const)

    def test_lin_comb_drops_zero_and_unit_coefficients(self):
        e = lin_comb([0.0, 1.0], [X1, X2])
        assert e is X2
        assert isinstance(lin_comb([0.0, 0.0], [X1, X2]), Const)

    def test_node_count_shared_subtree(self):
        shared = X1 * X2
        e = Add(shared, shared)
        assert node_count(e) == 7  # counted per use

    def test_tape_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        e = random_expr(rng, 2, 4)
        pts = rng.uniform(-1, 1, size=(40, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            batch = Tape([e]).eval_points(pts)[0]
            for p, v in zip(pts, batch):
                sv = eval_point(e, p)
                if math.isfinite(sv):
                    assert sv == v


# ---------------------------------------------------------------------------
# Tape parity with the straight-line evaluator it replaced
# ---------------------------------------------------------------------------

def reference_pad_out(lo, hi):
    lo = np.nextafter(np.nextafter(lo, -np.inf), -np.inf)
    hi = np.nextafter(np.nextafter(hi, np.inf), np.inf)
    return lo, hi


def reference_ops(roots):
    """Compile as Tape did before "scale": one ("mul", a, b) per product."""
    ops, memo = [], {}

    def walk(e):
        if id(e) not in memo:
            if isinstance(e, Var):
                instr = ("var", e.index, None)
            elif isinstance(e, Const):
                instr = ("const", e.value, None)
            elif isinstance(e, (Add, Sub, Mul)):
                instr = (type(e).__name__.lower(), walk(e.left), walk(e.right))
            elif isinstance(e, Pow):
                instr = ("pow", walk(e.base), e.exponent)
            else:
                instr = (type(e).__name__.lower(), walk(e.operand), None)
            ops.append(instr)
            memo[id(e)] = len(ops) - 1
        return memo[id(e)]

    outputs = [walk(r) for r in roots]
    return ops, outputs


def reference_eval_points(roots, points):
    ops, outputs = reference_ops(roots)
    m = points.shape[0]
    regs = []
    for op, a, b in ops:
        if op == "var":
            regs.append(points[:, a])
        elif op == "const":
            regs.append(np.full(m, a))
        elif op == "add":
            regs.append(regs[a] + regs[b])
        elif op == "sub":
            regs.append(regs[a] - regs[b])
        elif op == "mul":
            regs.append(regs[a] * regs[b])
        elif op == "neg":
            regs.append(-regs[a])
        elif op == "sin":
            regs.append(np.sin(regs[a]))
        elif op == "cos":
            regs.append(np.cos(regs[a]))
        elif op == "exp":
            regs.append(np.exp(regs[a]))
        else:
            regs.append(np.power(regs[a], b))
    return [regs[i] for i in outputs]


def reference_eval_boxes(roots, lo, hi, monkeypatch):
    """Box evaluation with nextafter padding (also inside the sin/cos/pow
    range helpers), np.full constants and the four-product rule for every mul."""
    ops, outputs = reference_ops(roots)
    m = lo.shape[0]
    regs = []
    with monkeypatch.context() as patch:
        patch.setattr(kbarrier.expr, "_pad_out", reference_pad_out)
        for op, a, b in ops:
            if op == "var":
                regs.append((lo[:, a], hi[:, a]))
            elif op == "const":
                c = np.full(m, a)
                regs.append((c, c))
            elif op == "add":
                regs.append((regs[a][0] + regs[b][0], regs[a][1] + regs[b][1]))
            elif op == "sub" and a == b:
                z = np.zeros(m)
                regs.append((z, z))
            elif op == "sub":
                regs.append((regs[a][0] - regs[b][1], regs[a][1] - regs[b][0]))
            elif op == "mul" and a == b:
                regs.append(kbarrier.expr._pow_range(regs[a][0], regs[a][1], 2))
            elif op == "mul":
                al, ah = regs[a]
                bl, bh = regs[b]
                p1, p2, p3, p4 = al * bl, al * bh, ah * bl, ah * bh
                regs.append((np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
                             np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))))
            elif op == "neg":
                regs.append((-regs[a][1], -regs[a][0]))
            elif op == "sin":
                regs.append(kbarrier.expr._sin_range(*regs[a]))
            elif op == "cos":
                regs.append(kbarrier.expr._cos_range(*regs[a]))
            elif op == "exp":
                regs.append(reference_pad_out(np.exp(regs[a][0]), np.exp(regs[a][1])))
            else:
                regs.append(kbarrier.expr._pow_range(regs[a][0], regs[a][1], b))
    return [regs[i] for i in outputs]


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


# Bounds where the two-ulp step and the products' signs are delicate.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1e-310, -1e-310, 1.0, -1.0, 2.0, -2.0,
               1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


def parity_roots(rng):
    x, y = Var(0), Var(1)
    shared = Sin(x) + y
    parsed = [parse_expr(t) for t in (
        "(pow (const 1.1) 3)", "(sin (const 0.3))", "(mul (const 2.0) (const -0.0))",
        "(cos (neg (const 0.0)))", "(exp (const -800.0))", "(mul (const 1.5) (var 1))",
        "(add (var 0) (exp (const 0.5)))", "(mul (sin (const 0.3)) (var 0))",
        "(sub (pow (const 1.1) 2) (const 3.0))",
    )]
    roots = [
        Mul(Const(-0.75), x), Mul(y, Const(2.5)), Mul(Const(0.0), Exp(x)),
        Mul(Const(-0.0), y), Mul(Const(3.0), Mul(Const(-2.0), shared)),
        Sub(shared, shared), Mul(shared, shared), Mul(Const(1.5), Sub(x, x)),
        Const(2.0), Const(-0.0), Sub(Const(1.0), Const(1.0)), *parsed,
    ]
    roots += [random_expr(rng, 2, 5) for _ in range(150)]
    return roots


def parity_boxes(rng):
    pairs = [(-2.0, 3.0), (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 1e-310),
             (-5e-324, 5e-324), (5e-324, 1e-323), (-1e-323, -5e-324),
             (1.5, 1.5), (-1.0, 0.0), (-0.0, 2.0), (-700.0, 720.0), (-3.0, -1.0)]
    lo = [[a, c] for a, _ in pairs for c, _ in pairs]
    hi = [[b, d] for _, b in pairs for _, d in pairs]
    random_lo = rng.uniform(-4.0, 4.0, size=(200, 2))
    random_hi = random_lo + rng.uniform(0.0, 2.0, size=(200, 2)) * (rng.uniform(size=(200, 2)) < 0.8)
    return np.vstack([lo, random_lo]), np.vstack([hi, random_hi])


@pytest.fixture(scope="module")
def k3_roots(highly_nonlinear, reference_nonlinear_cert):
    """Every root the verifier compiles for the four conditions at k = 3."""
    config, _, _, _, model = highly_nonlinear
    task = VerificationTask(B=reference_nonlinear_cert, f1_sym=model.symbolic_step(),
                            fk_sym=model.symbolic_k_step(3), spec=config.safety_spec(),
                            kbc=KBCSpec(k=3, epsilon=config.epsilon))
    return [root for tag, constraints, _ in condition_exprs(task)
            for root in [e for e, _ in constraints] + [_margin_expr(tag, constraints)]]


class TestTapeParity:
    """Tape gives bit for bit what the straight-line evaluator gave."""

    def test_ops_in_reference_order(self, k3_roots):
        roots = parity_roots(np.random.default_rng(11)) + k3_roots
        tape = Tape(roots)
        ops, outputs = reference_ops(roots)
        assert tape.outputs == outputs and len(tape.ops) == len(ops)
        for got, want in zip(tape.ops, ops):
            assert got == want or (got[0] == "scale" and want[0] == "mul"
                                   and got[2] in want[1:])

    def test_eval_boxes_bitwise(self, monkeypatch, k3_roots):
        rng = np.random.default_rng(11)
        roots = parity_roots(rng) + k3_roots
        lo, hi = parity_boxes(rng)
        tape = Tape(roots)
        assert sum(op == "scale" for op, _, _ in tape.ops) >= 8
        with np.errstate(all="ignore"):
            got = tape.eval_boxes(lo, hi)
            want = reference_eval_boxes(roots, lo, hi, monkeypatch)
        for (gl, gh), (wl, wh) in zip(got, want):
            assert_bitwise_equal(gl, wl)
            assert_bitwise_equal(gh, wh)

    def test_eval_points_bitwise(self, k3_roots):
        rng = np.random.default_rng(12)
        roots = parity_roots(rng) + k3_roots
        edges = np.array([[a, b] for a in EDGE_VALUES for b in EDGE_VALUES[::3]])
        points = np.vstack([edges, rng.uniform(-4.0, 4.0, size=(200, 2))])
        with np.errstate(all="ignore"):
            got = Tape(roots).eval_points(points)
            want = reference_eval_points(roots, points)
        for g, w in zip(got, want):
            assert_bitwise_equal(g, w)

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_constant_roots_are_fresh_arrays(self, m):
        x = Var(0)
        tape = Tape([Const(2.0), x, Sub(x, x)])
        lo = np.linspace(-1.0, 1.0, m)[:, None]
        hi = lo + 1.0
        (c_lo, c_hi), (x_lo, x_hi), (z_lo, z_hi) = tape.eval_boxes(lo, hi)
        c_pt, x_pt, _ = tape.eval_points(lo)
        for v in (c_lo, c_hi, x_lo, x_hi, z_lo, z_hi, c_pt, x_pt):
            assert isinstance(v, np.ndarray) and v.shape == (m,) and v.dtype == np.float64
            assert v.flags.writeable
        for constant in (c_lo, c_hi, z_lo, z_hi, c_pt):
            for other in (c_lo, c_hi, x_lo, x_hi, z_lo, z_hi, c_pt, x_pt, lo, hi):
                assert other is constant or not np.shares_memory(constant, other)
        c_lo += 1.0
        z_lo -= 1.0
        assert (c_hi == 2.0).all() and (z_hi == 0.0).all()
        np.testing.assert_array_equal(tape.eval_points(lo)[0], np.full(m, 2.0))


def reference_contains_center(lo, hi, offset):
    """One offset at a time, as the sin and cos enclosures first computed it."""
    t = (lo - offset) / (2.0 * math.pi)
    u = (hi - offset) / (2.0 * math.pi)
    fuzz = 4e-16 * (2.0 + np.abs(t) + np.abs(u))
    return np.floor(u + fuzz) >= np.ceil(t - fuzz)


class TestTrigRange:
    """The stacked extremum test gives the enclosures of two separate passes."""

    @staticmethod
    def reference(lo, hi):
        half_pi = 0.5 * math.pi
        sin = kbarrier.expr._trig_range(
            np.sin(lo), np.sin(hi), reference_contains_center(lo, hi, half_pi),
            reference_contains_center(lo, hi, -half_pi))
        cos = kbarrier.expr._trig_range(
            np.cos(lo), np.cos(hi), reference_contains_center(lo, hi, 0.0),
            reference_contains_center(lo, hi, math.pi))
        return sin, cos

    def test_arrays_bitwise(self):
        rng = np.random.default_rng(14)
        lo, hi = parity_boxes(rng)
        centre = rng.uniform(-50.0, 50.0, 2000)
        width = rng.uniform(0.0, 7.0, 2000) * (rng.uniform(size=2000) < 0.9)
        # boxes that end within a few ulps of an extremum, where the fuzz decides
        extrema = np.array([k * 2.0 * math.pi + c for k in range(-3, 4)
                            for c in (0.5 * math.pi, -0.5 * math.pi, 0.0, math.pi)])
        near = np.concatenate([extrema + s * np.spacing(extrema) for s in range(-3, 4)])
        lo = np.concatenate([lo.ravel(), centre - width, near, near - 0.5, near])
        hi = np.concatenate([hi.ravel(), centre + width, near, near, near + 0.5])
        with np.errstate(all="ignore"):
            got = (kbarrier.expr._sin_range(lo, hi), kbarrier.expr._cos_range(lo, hi))
            want = self.reference(lo, hi)
            # the padding hides most of the fuzz in the enclosures, so check the tests too
            for name in ("_SIN_EXTREMA", "_COS_EXTREMA"):
                centers = getattr(kbarrier.expr, name)
                rows = kbarrier.expr._contains_centers(lo, hi, centers)
                for row, c in zip(rows, centers.ravel()):
                    np.testing.assert_array_equal(row, reference_contains_center(lo, hi, c))
        for got_pair, want_pair in zip(got, want):
            for g, w in zip(got_pair, want_pair):
                assert_bitwise_equal(g, w)

    @pytest.mark.parametrize("lo, hi", [(0.3, 0.3), (-0.0, 0.0), (1.0, 2.0), (-4.0, 3.0)])
    def test_scalars_stay_scalar(self, lo, hi):
        got = (kbarrier.expr._sin_range(lo, hi), kbarrier.expr._cos_range(lo, hi))
        for got_pair, want_pair in zip(got, self.reference(lo, hi)):
            for g, w in zip(got_pair, want_pair):
                assert np.shape(g) == ()
                assert_bitwise_equal(g, w)


class TestPadOut:
    def test_matches_two_nextafter_steps(self):
        values = np.array(EDGE_VALUES + [-math.nan, 1.0000000000000002, 0.9999999999999999,
                                         2.225073858507201e-308, 1.7976931348623155e308])
        lo, hi = _pad_out(values, values)
        with np.errstate(all="ignore"):
            want_lo, want_hi = reference_pad_out(values, values)
        assert_bitwise_equal(lo, want_lo)
        assert_bitwise_equal(hi, want_hi)
        for v in values:
            got = _pad_out(np.float64(v), np.float64(v))
            with np.errstate(all="ignore"):
                want = reference_pad_out(np.float64(v), np.float64(v))
            for g, w in zip(got, want):
                assert np.shape(g) == ()
                assert_bitwise_equal(g, w)

    def test_random_bit_patterns_and_nan_payloads(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(-2**63, 2**63, size=20_000, dtype=np.int64)
        inf = 0x7FF0_0000_0000_0000
        payloads = np.array([inf + 1, inf + 2, 2**63 - 2, 2**63 - 1], dtype=np.int64)
        bits = np.concatenate([bits, payloads, payloads | np.int64(-2**63)])
        values = bits.view(np.float64)
        lo, hi = _pad_out(values, values[::-1])
        with np.errstate(all="ignore"):
            want_lo, want_hi = reference_pad_out(values, values[::-1])
        assert_bitwise_equal(lo, want_lo)
        assert_bitwise_equal(hi, want_hi)
