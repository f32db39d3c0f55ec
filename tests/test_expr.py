"""Expression evaluation, interval soundness, substitution and text form."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import kbarrier.expr
from kbarrier import (
    KBCSpec, VerificationTask, condition_exprs, eval_interval, eval_point, format_expr,
    parse_expr, substitute,
)
from kbarrier.expr import (
    Add, Box, Const, Cos, Exp, Mul, Neg, Pow, Sin, Sub, Tape, Var,
    lin_comb, max_var_index, node_count, _NODES, _RULES, _pad_out,
    add, cos, exp, mul, neg, power, sin, sub,
)
from kbarrier.learner import init_params, mixed_sin_cos

from conftest import random_box, random_expr, random_finite_pair

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
        lo, hi = eval_interval(X1 ** 2, Box.from_bounds([(-1.0, 2.0)]))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(4.0, abs=1e-12)
        assert lo > -1.0  # not the naive [-2, 4]

    def test_sin_interior_max(self):
        lo, hi = eval_interval(Sin(X1), Box.from_bounds([(0.0, math.pi)]))
        assert hi == 1.0
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_bilinear_containment(self):
        # oracle: random in-box samples must land inside the enclosure
        e = X1 * X2 - X1
        box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
        lo, hi = eval_interval(e, box)
        assert lo <= -1.0 + 1e-12 and hi >= 1.0 - 1e-12
        rng = np.random.default_rng(7)
        for p in box.sample(rng, 100):
            assert lo <= eval_point(e, p) <= hi

    def test_cos_full_period(self):
        assert eval_interval(Cos(X1), Box.from_bounds([(0.0, 7.0)])) == (-1.0, 1.0)

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
        lo, hi = eval_interval(X1 ** 3, Box.from_bounds([(-2.0, 1.5)]))
        assert lo == pytest.approx(-8.0, rel=1e-12)
        assert hi == pytest.approx(3.375, rel=1e-12)


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
            lo, hi = eval_interval(e, box)
            x = box.sample(rng, 1)[0]
            v = eval_point(e, x)
            assert lo <= v <= hi

    def test_split_hull_never_widens(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            e, box = random_finite_pair(rng)
            whole = eval_interval(e, box)
            dim = int(np.argmax(box.widths()))
            mid = box.midpoint()[dim]
            lo_b = box.bounds()
            hi_b = box.bounds()
            lo_b[dim] = (lo_b[dim][0], mid)
            hi_b[dim] = (mid, hi_b[dim][1])
            try:
                left = eval_interval(e, Box.from_bounds(lo_b))
                right = eval_interval(e, Box.from_bounds(hi_b))
            except ValueError:
                continue
            hull = (min(left[0], right[0]), max(left[1], right[1]))
            assert hull[0] >= whole[0] and hull[1] <= whole[1]


class TestBox:
    def test_validation(self):
        # lower > upper, inf, NaN, no dimensions, mismatched lengths, not 1-D
        for lower, upper in [([2.0], [1.0]), ([0.0], [math.inf]), ([-math.inf], [0.0]),
                             ([math.nan], [1.0]), ([0.0, 0.0], [1.0, math.nan]), ([], []),
                             ([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])]:
            with pytest.raises(ValueError):
                Box(lower, upper)
        for bounds in ([(2.0, 1.0)], [], [(0.0, math.nan)]):
            with pytest.raises(ValueError):
                Box.from_bounds(bounds)
        Box([1.0], [1.0])  # a degenerate box is a box

    def test_batch_contains_is_the_row_rule(self):
        box = Box.from_bounds([(-1.0, 0.5), (0.0, 2.0)])
        rng = np.random.default_rng(5)
        points = rng.uniform(-1.5, 2.5, size=(400, 2))
        points[:4] = [[-1.0, 0.0], [0.5, 2.0], [0.5, 2.0 + 1e-12], [math.nan, 1.0]]
        mask = box.contains(points)
        assert mask.shape == (400,) and mask.dtype == bool
        (lo0, hi0), (lo1, hi1) = box.bounds()
        rule = [lo0 <= x <= hi0 and lo1 <= y <= hi1 for x, y in points]
        assert mask.tolist() == rule
        assert mask[:4].tolist() == [True, True, False, False]
        assert [box.contains(p) for p in points] == rule
        assert box.contains(np.empty((0, 2))).shape == (0,)

    def test_single_point_and_wrong_dimension(self):
        box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
        assert box.contains([0.5, 0.5]) is True
        assert box.contains((1.5, 0.5)) is False
        assert box.contains([0.5]) is False
        assert box.contains([0.5, 0.5, 0.5]) is False

    def test_bounds_round_trip_exactly(self):
        bounds = [(-2.0, 0.1), (1 / 3, 0.7), (5e-324, 1e300)]
        box = Box.from_bounds(bounds)
        assert box.bounds() == bounds
        assert Box.from_bounds(box.bounds()).bounds() == bounds
        assert box.n == 3
        assert box.lo().tolist() == [-2.0, 1 / 3, 5e-324]

    def test_bounds_are_read_only(self):
        source = np.array([0.0, 1.0])
        box = Box(source, [1.0, 2.0])
        source[0] = -5.0  # the box keeps its own copy
        assert box.lo()[0] == 0.0
        with pytest.raises(ValueError):
            box.lo()[0] = -1.0
        with pytest.raises(ValueError):
            box.hi()[:] = 3.0

    def test_compares_by_identity(self):
        a, b = Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
        assert a != b and a == a
        assert len({a, b}) == 2


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

    def test_constructors_do_not_fold(self):
        c, d = Const(2.0), Const(3.0)
        built = [add(c, d), sub(c, d), mul(c, d), neg(c), power(c, 2), sin(c), cos(c),
                 exp(c), c + d, c - d, c * d, -c, c ** 3, 2.0 * c, c + 1.0]
        assert not any(isinstance(e, Const) for e in built)
        assert [type(e) for e in built[:8]] == [Add, Sub, Mul, Neg, Pow, Sin, Cos, Exp]
        with pytest.raises(ValueError):
            power(c, 0)

    def test_constant_subtree_gets_padded_enclosure(self):
        box = Box.from_bounds([(0.0, 1.0)])
        lo, hi = eval_interval(sin(Const(0.7)), box)
        assert lo < math.sin(0.7) < hi
        assert eval_point(sin(Const(0.7)), [0.0]) == np.sin(0.7)

    def test_lin_comb_drops_zero_and_unit_coefficients(self):
        e = lin_comb([0.0, 1.0], [X1, X2])
        assert e is X2
        assert isinstance(lin_comb([0.0, 0.0], [X1, X2]), Const)

    def test_node_count_shared_subtree(self):
        shared = X1 * X2
        e = Add(shared, shared)
        assert node_count(e) == 7  # counted per use

    def test_repr_names_leaves_and_dag_size(self):
        shared = X1 * X2
        assert repr(X2) == "Var(1)"
        assert repr(Const(-0.25)) == "Const(-0.25)"
        assert repr(Add(shared, shared)) == "Add(<DAG of 4 nodes>)"
        assert repr(Pow(X1, 3)) == "Pow(<DAG of 2 nodes>)"

    def test_repr_is_bounded(self, highly_nonlinear, reference_nonlinear_cert):
        # pytest prints the arguments of a failing test: that text must not
        # grow with the expression tree, nor recurse once per level
        chain = X1
        for _ in range(10_000):
            chain = Neg(chain)
        _, _, _, _, model = highly_nonlinear
        composed = substitute(reference_nonlinear_cert, model.symbolic_k_step(6))
        for e in (chain, composed, model.symbolic_k_step(6)[0]):
            assert len(repr(e)) < 200

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


# A trig op's centred enclosure and partial from two separate range helpers,
# as `Tape.eval_centred` formed them before sin and cos shared one analysis.
REFERENCE_TRIG = {
    "sin": lambda lo, hi: (kbarrier.expr._sin_range(lo, hi),
                           (kbarrier.expr._cos_range(lo, hi),)),
    "cos": lambda lo, hi: (kbarrier.expr._cos_range(lo, hi),
                           (kbarrier.expr._neg_range(kbarrier.expr._sin_range(lo, hi)),)),
}


def reference_centred_step(rules, x, y):
    """The centred step with unfused trig ops and every error bound scaled by
    |partial|, 1.0 included."""
    name = next(name for name, entry in _RULES.items() if entry is rules)
    xb = x[0]
    yb = y[0] if type(y) is tuple else y
    if name in REFERENCE_TRIG:
        z, partials = REFERENCE_TRIG[name](xb[0], xb[1])
    else:
        z, partials = rules[2](xb, yb)
    magnitude = kbarrier.expr._magnitude
    grad, err = None, kbarrier.expr._OP_ERROR * magnitude(z)
    for partial, (_, g, e) in zip(partials, (x, y)):
        exact = type(partial) is float
        if exact and partial == 0.0:
            continue
        if g is not None:
            if not exact:
                term = kbarrier.expr._box_mul(partial, g)
            elif partial == 1.0:
                term = g
            else:
                term = ((partial * g[0], partial * g[1]) if partial > 0.0
                        else (partial * g[1], partial * g[0]))
            grad = term if grad is None else (grad[0] + term[0], grad[1] + term[1])
        if type(e) is not float:
            err = err + (abs(partial) if exact else magnitude(partial)) * e
    return z, grad, err


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
    return [e for _, constraints, _ in condition_exprs(task) for e, _ in constraints]


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


class TestOpTable:
    """`_RULES` holds one (point rule, box rule, centred rule) triple for each op
    a Tape can emit."""

    # one expression per table entry; its last op is the entry
    EMITTED_BY = {
        "add": Add(X1, X2), "sub": Sub(X1, X2), "sub_self": Sub(X1, X1),
        "mul": Mul(X1, X2), "mul_self": Mul(X1, X1), "scale": Mul(X1, Const(2.0)),
        "neg": Neg(X1), "pow": Pow(X1, 3), "sin": Sin(X1), "cos": Cos(X1), "exp": Exp(X1),
    }

    def test_entries_are_the_emittable_ops(self):
        emittable = set(_NODES) - {"var", "const"} | {"scale", "sub_self", "mul_self"}
        assert set(_RULES) == set(self.EMITTED_BY) == emittable
        for rules in _RULES.values():
            assert len(rules) == 3 and all(callable(rule) for rule in rules)

    @pytest.mark.parametrize("name", sorted(EMITTED_BY))
    def test_compiler_emits_each_entry(self, name):
        _, rules, _, _ = Tape([self.EMITTED_BY[name]])._steps[-1]
        assert rules is _RULES[name]


# each op's partial derivatives at a point, one per operand register
POINT_PARTIALS = {
    "add": lambda x, y: (1.0, 1.0),
    "sub": lambda x, y: (1.0, -1.0),
    "sub_self": lambda x, y: (0.0,),
    "mul": lambda x, y: (y, x),
    "mul_self": lambda x, y: (2.0 * x,),
    "scale": lambda c, x: (x, c),
    "neg": lambda x, y: (-1.0,),
    "pow": lambda x, p: (p * x ** (p - 1),),
    "sin": lambda x, y: (np.cos(x),),
    "cos": lambda x, y: (-np.sin(x),),
    "exp": lambda x, y: (np.exp(x),),
}


class TestPartialsRules:
    @pytest.mark.parametrize("name", sorted(POINT_PARTIALS))
    def test_enclose_the_point_partials(self, name):
        assert set(POINT_PARTIALS) == set(_RULES)
        _, _, centred_rule = _RULES[name]
        rng = np.random.default_rng(sorted(POINT_PARTIALS).index(name))
        for _ in range(200):
            x_lo = rng.uniform(-4.0, 4.0, 64)
            x = (x_lo, x_lo + rng.uniform(0.0, 3.0, 64))
            y_lo = rng.uniform(-4.0, 4.0, 64)
            y = (y_lo, y_lo + rng.uniform(0.0, 3.0, 64))
            if name == "pow":
                y = int(rng.integers(1, 5))
            elif name == "scale":
                c = float(rng.uniform(-3.0, 3.0))
                x = (c, c)
            elif name in ("sub_self", "mul_self"):
                y = x
            _, partials = centred_rule(x, y)
            u, v = rng.uniform(size=(2, 64))
            px = x[0] + u * (x[1] - x[0])
            py = y if name == "pow" else y[0] + v * (y[1] - y[0])
            want = POINT_PARTIALS[name](px, py)
            assert len(partials) == len(want)
            for enclosure, d in zip(partials, want):
                if type(enclosure) is float:
                    np.testing.assert_array_equal(d, enclosure)
                else:
                    assert np.all((enclosure[0] <= d) & (d <= enclosure[1]))


def random_polynomial(rng, depth):
    """Random expression over variables, constants, add, sub, mul, neg and pow."""
    if depth == 0 or rng.uniform() < 0.2:
        if rng.uniform() < 0.7:
            return Var(int(rng.integers(2)))
        return Const(float(rng.uniform(-2.0, 2.0)))
    op = rng.choice(["add", "sub", "mul", "neg", "pow"], p=[0.3, 0.25, 0.25, 0.1, 0.1])
    a = random_polynomial(rng, depth - 1)
    if op == "neg":
        return Neg(a)
    if op == "pow":
        return Pow(a, int(rng.integers(1, 4)))
    return {"add": Add, "sub": Sub, "mul": Mul}[op](a, random_polynomial(rng, depth - 1))


def exact_value(e, x):
    """e at the point x in rational arithmetic (x's floats read exactly)."""
    if isinstance(e, Var):
        return Fraction(x[e.index])
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Neg):
        return -exact_value(e.operand, x)
    if isinstance(e, Pow):
        return exact_value(e.base, x) ** e.exponent
    a, b = exact_value(e.left, x), exact_value(e.right, x)
    return a + b if isinstance(e, Add) else a - b if isinstance(e, Sub) else a * b


class TestCentredForm:
    """`Tape.eval_centred`: never wider than `eval_boxes`, and every point
    value in the box, floating or exact, lies inside."""

    @staticmethod
    def centred_and_naive(e, lo, hi):
        tape = Tape([e])
        with np.errstate(all="ignore"):
            (c_lo, c_hi), = tape.eval_centred(lo, hi)
            (n_lo, n_hi), = tape.eval_boxes(lo, hi)
        nan = np.isnan(n_lo) | np.isnan(n_hi)
        assert np.all((c_lo >= n_lo) & (c_hi <= n_hi) | nan)
        return tape, c_lo, c_hi

    def test_random_pairs_never_escape(self):
        # draw 582 of this sequence is (c + ((x0 + c') - (x0 + x1))) + x1 with
        # distinct Var nodes: its gradient is exactly 0, so only the rounding
        # allowance keeps the point values inside the centred enclosure
        rng, narrow_rng = np.random.default_rng(0), np.random.default_rng(1)
        tightened = 0
        for draw in range(1200):
            e, box = random_finite_pair(rng)
            points = box.sample(rng, 5)
            # and a narrow box around one of them, where the form is tight
            narrow = Box(np.maximum(points[0] - 1e-3 * box.widths(), box.lo()),
                         np.minimum(points[0] + 1e-3 * box.widths(), box.hi()))
            lo, hi = np.vstack([box.lo(), narrow.lo()]), np.vstack([box.hi(), narrow.hi()])
            tape, c_lo, c_hi = self.centred_and_naive(e, lo, hi)
            if draw == 582:
                assert format_expr(e).count("var") == 4 and c_hi[0] - c_lo[0] < 1e-13
            with np.errstate(all="ignore"):
                values = tape.eval_points(np.vstack([points, narrow.sample(narrow_rng, 5)]))
            values = values[0].reshape(2, 5)
            inside = (c_lo[:, None] <= values) & (values <= c_hi[:, None])
            assert np.all(inside | ~np.isfinite(values)), draw
            with np.errstate(all="ignore"):
                (n_lo, n_hi), = tape.eval_boxes(narrow.lo()[None, :], narrow.hi()[None, :])
            tightened += bool(c_hi[1] - c_lo[1] < 0.5 * (n_hi[0] - n_lo[0]))
        assert tightened > 100

    def test_exact_containment_on_polynomials(self):
        rng = np.random.default_rng(5)
        cases = [(parse_expr("(add (add (const -1.600948224151923) (sub (add (var 0) "
                             "(const -1.322915519281929)) (add (var 0) (var 1)))) (var 1))"),
                  random_box(rng, 2))]
        # a root without variables is only a rounded constant to eval_boxes too
        cases += [(e, random_box(rng, 2)) for e in (random_polynomial(rng, 4) for _ in range(500))
                  if max_var_index(e) >= 0]
        for e, box in cases:
            narrow = Box(box.lo(), box.lo() + 1e-4 * box.widths())
            for b in (box, narrow):
                _, c_lo, c_hi = self.centred_and_naive(e, b.lo()[None, :], b.hi()[None, :])
                for x in b.sample(rng, 5):
                    value = exact_value(e, x)
                    assert c_lo[0] <= value <= c_hi[0], format_expr(e)

    def test_constant_and_variable_roots(self):
        tape = Tape([Const(2.5), X2, Sub(X1, X1)])
        lo = np.array([[0.0, -1.0], [1.0, 2.0]])
        (c_lo, c_hi), (x_lo, x_hi), (z_lo, z_hi) = tape.eval_centred(lo, lo + 0.5)
        np.testing.assert_array_equal(c_lo, [2.5, 2.5])
        np.testing.assert_array_equal(c_hi, [2.5, 2.5])
        np.testing.assert_array_equal(x_lo, [-1.0, 2.0])
        np.testing.assert_array_equal(x_hi, [-0.5, 2.5])
        np.testing.assert_array_equal(z_lo, [0.0, 0.0])
        np.testing.assert_array_equal(z_hi, [0.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deep_tape_never_escapes(self, highly_nonlinear, seed):
        # the E2 Tape of a width-4 sin/cos network at k = 30 has more than the
        # 2^10 chained ops _SPREAD_ERROR is sized for
        config, _, _, _, model = highly_nonlinear
        net = init_params(2, 4, mixed_sin_cos(4), seed=seed)
        task = VerificationTask(B=net.to_expr(), f1_sym=model.symbolic_step(),
                                fk_sym=model.symbolic_k_step(30), spec=config.safety_spec(),
                                kbc=KBCSpec(k=30, epsilon=config.epsilon))
        constraints, X = next((c, region) for tag, c, region in condition_exprs(task)
                              if tag == "E2")
        tape = Tape([e for e, _ in constraints])
        assert len(tape.ops) > 2 ** 10
        rng = np.random.default_rng(seed)
        for width in (1e-1, 1e-2, 1e-3, 1e-4):
            lo = rng.uniform(X.lo(), X.hi() - width, size=(100, 2))
            hi = lo + width
            points = lo[:, None, :] + width * rng.uniform(size=(100, 20, 2))
            with np.errstate(all="ignore"):
                centred = tape.eval_centred(lo, hi)
                naive = tape.eval_boxes(lo, hi)
                values = tape.eval_points(points.reshape(-1, 2))
            for (c_lo, c_hi), v in zip(centred, values):
                v = v.reshape(100, 20)
                assert np.all((c_lo[:, None] <= v) & (v <= c_hi[:, None])), width
            if width <= 1e-3:
                # the refinement, not the naive bound, decides the last constraint
                (c_lo, c_hi), (n_lo, n_hi) = centred[-1], naive[-1]
                assert np.median((n_hi - n_lo) / (c_hi - c_lo)) > 10

    def test_nan_enclosure_stays_nan(self):
        # 0 * exp(x^2 + 710) is NaN at every point and over every box, and
        # a NaN enclosure keeps the box in the search
        e = Mul(Const(0.0), Exp(Add(Mul(X1, X1), Const(710.0))))
        _, c_lo, c_hi = self.centred_and_naive(e, np.array([[0.0]]), np.array([[1.0]]))
        assert np.isnan(c_lo[0]) and np.isnan(c_hi[0])


class TestCentredTrigParity:
    """A centred sin or cos takes its enclosure and its partial from one
    quadrant analysis, and a +-1 partial passes its operand's error bound on
    unscaled: `eval_centred` gives what the unfused step gives, bit for bit."""

    X3 = Var(2)
    ROOTS = {
        1: [Sin(X1), Cos(X1), Sin(Cos(X1)), Cos(Sin(Cos(X1))), Neg(Cos(X1)),
            Add(Sin(Const(0.7)), X1), Mul(Cos(Const(-2.0)), Sin(X1)), Sin(Const(1e6)),
            Sub(Sin(Mul(Const(2.0), X1)), Cos(Mul(X1, X1))), Exp(Sin(X1)), Pow(Cos(X1), 3)],
        2: [Add(Sin(X1), Cos(X2)), Sin(Sub(X1, X2)), Mul(Sin(X1), Cos(Sin(X2))),
            Cos(Add(Mul(X1, X2), Sin(Const(0.3))))],
        3: [Add(Sin(Cos(X1)), Mul(Cos(X2), Sin(X3))), Cos(Add(Add(X1, X2), X3)),
            Sub(Sin(X3), Neg(Cos(Sub(X1, X3))))],
    }
    # box centres at the extrema and where the sign of a bound matters
    CENTRES = [0.5 * math.pi, -0.5 * math.pi, 0.0, math.pi, -math.pi, 2.5 * math.pi,
               0.3, -1.7, 1e6, -1e6 + 0.4]
    # degenerate, narrow, straddling an extremum, and wider than 2 pi
    WIDTHS = [0.0, 1e-12, 1e-3, 0.5, 2.0, 7.0, 20.0]

    def boxes(self, n, rng):
        pairs = [(c - w / 2, c + w / 2) for c in self.CENTRES for w in self.WIDTHS]
        pairs += [(-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (-1.0, -0.0), (0.0, 1.0),
                  (-0.0, 2.0 * math.pi), (1e6, 1e6 + 1e-9)]
        pairs = np.array(pairs)
        rows = rng.integers(len(pairs), size=(200, n))
        # column 0 runs through every pair, the other columns draw at random
        rows[:len(pairs), 0] = np.arange(len(pairs))
        return pairs[rows, 0], pairs[rows, 1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_unfused_step(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        lo, hi = self.boxes(n, rng)
        for rows in (slice(0, 1), slice(0, 2), slice(None)):
            tape = Tape(self.ROOTS[n])
            got = tape.eval_centred(lo[rows], hi[rows])
            with monkeypatch.context() as patch:
                patch.setattr(kbarrier.expr, "_centred_step", reference_centred_step)
                want = tape.eval_centred(lo[rows], hi[rows])
            for got_pair, want_pair in zip(got, want):
                for g, w in zip(got_pair, want_pair):
                    assert_bitwise_equal(g, w)

    def test_fused_ranges_are_the_box_rules(self):
        rng = np.random.default_rng(4)
        lo, hi = self.boxes(1, rng)
        lo, hi = lo[:, 0], hi[:, 0]
        want = (kbarrier.expr._sin_range(lo, hi), kbarrier.expr._cos_range(lo, hi))
        for got_pair, want_pair in zip(kbarrier.expr._sin_cos_ranges(lo, hi), want):
            for g, w in zip(got_pair, want_pair):
                assert_bitwise_equal(g, w)


class TestBatchIndependence:
    """A row's result does not depend on the batch it is evaluated in.

    This holds for the numpy build and CPU the suite runs on; vector and
    scalar libm paths may differ in the last bit elsewhere.  Any batching
    of boxes other than one search level per call relies on it.
    """

    ROWS = 40

    @pytest.fixture(scope="class")
    def tape(self, k3_roots):
        rng = np.random.default_rng(21)
        return Tape([random_expr(rng, 2, 5) for _ in range(60)] + k3_roots)

    @staticmethod
    def batches(rows):
        """For every size 1..rows, row indices that put each row at shifting positions."""
        for size in range(1, rows + 1):
            yield (np.arange(size) * 7 + size) % rows

    def test_eval_boxes_rows_independent(self, tape):
        lo, hi = parity_boxes(np.random.default_rng(22))
        pick = np.random.default_rng(23).choice(len(lo), self.ROWS, replace=False)
        lo, hi = lo[pick], hi[pick]

        def stacked(lo, hi):        # (2 * roots, rows): every lo bound, then every hi
            bounds = tape.eval_boxes(lo, hi)
            return np.array([b[0] for b in bounds] + [b[1] for b in bounds])

        with np.errstate(all="ignore"):
            alone = np.hstack([stacked(lo[i:i + 1], hi[i:i + 1]) for i in range(self.ROWS)])
            for idx in self.batches(self.ROWS):
                assert_bitwise_equal(stacked(lo[idx], hi[idx]), alone[:, idx])

    def test_eval_points_rows_independent(self, tape):
        rng = np.random.default_rng(24)
        edges = np.array([[a, b] for a in EDGE_VALUES[::2] for b in EDGE_VALUES[1::4]])
        points = np.vstack([edges, rng.uniform(-4.0, 4.0, size=(200, 2))])
        points = points[rng.choice(len(points), self.ROWS, replace=False)]
        with np.errstate(all="ignore"):
            alone = np.hstack([np.array(tape.eval_points(points[i:i + 1]))
                               for i in range(self.ROWS)])
            for idx in self.batches(self.ROWS):
                assert_bitwise_equal(np.array(tape.eval_points(points[idx])), alone[:, idx])


class TestReleaseSchedule:
    def test_each_dead_register_released_once_and_never_too_early(self, k3_roots):
        roots = parity_roots(np.random.default_rng(31)) + k3_roots
        roots += roots[:3]                      # outputs may repeat
        tape = Tape(roots)
        assert len(tape.release) == len(tape.ops)
        released = [r for dead in tape.release for r in dead]
        assert len(set(released)) == len(released)
        assert set(released) == set(range(len(tape.ops))) - set(tape.outputs)
        # a register dropped before its last reader would be read as None
        keep_all = Tape(roots)
        keep_all.release = [() for _ in keep_all.ops]
        lo, hi = parity_boxes(np.random.default_rng(32))
        with np.errstate(all="ignore"):
            for got, want in zip(tape.eval_points(lo), keep_all.eval_points(lo)):
                assert_bitwise_equal(got, want)
            for got, want in zip(tape.eval_boxes(lo, hi), keep_all.eval_boxes(lo, hi)):
                assert_bitwise_equal(got[0], want[0])
                assert_bitwise_equal(got[1], want[1])

    def test_released_by_last_reader(self):
        x, y = Var(0), Var(1)
        # ops: 0 const 2, 1 x, 2 y, 3 x*y, 4 scale 2*(x*y), 5 sin x, 6 add
        tape = Tape([Add(Mul(Const(2.0), Mul(x, y)), Sin(x))])
        assert tape.ops[4] == ("scale", 2.0, 3)
        assert tape.release == [(), (), (), (2,), (0, 3), (1,), (4, 5)]

    def test_shared_and_repeated_outputs_survive_release(self):
        x = Var(0)
        shared = Sin(x) * Cos(x)
        roots = [shared + Const(1.0), shared, shared - Mul(Const(2.0), x), shared]
        points = np.array([[0.5], [-1.0], [2.0]])
        lo, hi = points - 0.25, points + 0.25
        tape = Tape(roots)
        for root, got, (got_lo, got_hi) in zip(roots, tape.eval_points(points),
                                               tape.eval_boxes(lo, hi)):
            alone = Tape([root])
            assert_bitwise_equal(got, alone.eval_points(points)[0])
            want_lo, want_hi = alone.eval_boxes(lo, hi)[0]
            assert_bitwise_equal(got_lo, want_lo)
            assert_bitwise_equal(got_hi, want_hi)


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
