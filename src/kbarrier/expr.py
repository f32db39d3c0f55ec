"""Symbolic scalar expressions with exact point evaluation and sound interval evaluation.

The grammar is deliberately small: variables, constants, +, -, *, unary
negation, integer powers (exponent >= 1), sin, cos and exp.  Division is
excluded so interval evaluation never has to split around a zero
denominator.  Expression trees are immutable after construction and may
share subtrees freely; evaluation is memoised over shared nodes, so a
deeply composed expression costs what its DAG costs, not its tree.

Two evaluation modes are provided:

* point evaluation (`eval_point`, `Tape.eval_points`) -- ordinary float
  arithmetic, vectorised over sample batches;
* interval evaluation (`eval_interval`, `Tape.eval_boxes`) -- returns an
  enclosure of the expression's range over a box.  Results of sin, cos,
  exp and pow are widened by two ulps so the enclosure holds despite
  last-bit rounding differences between code paths; the step is taken on
  the IEEE bit pattern read as int64 (`_pad_out`), which gives exactly
  what two chained `np.nextafter` calls give at a few integer passes.
  add, sub, mul and scale (a product with a constant) still round to
  nearest, so an enclosure can miss the exact real range by an ulp.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Expr", "Var", "Const", "Add", "Sub", "Mul", "Neg", "Pow", "Sin", "Cos", "Exp",
    "Interval", "Box",
    "add", "sub", "mul", "neg", "power", "sin", "cos", "exp", "lin_comb",
    "eval_point", "eval_interval", "substitute",
    "format_expr", "parse_expr", "node_count", "max_var_index",
    "Tape",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes. Nodes compare by identity."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __repr__(self):
        return format_expr(self)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    index: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "index", operator.index(self.index))
        except TypeError:
            raise ValueError(f"variable index must be an integer, got {self.index!r}") from None
        if self.index < 0:
            raise ValueError(f"variable index must be non-negative, got {self.index}")


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value}")


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "exponent", operator.index(self.exponent))
        except TypeError:
            raise ValueError(f"power exponent must be an integer, got {self.exponent!r}") from None
        if self.exponent < 1:
            raise ValueError(f"power exponent must be >= 1, got {self.exponent}")


@dataclass(frozen=True, eq=False)
class Sin(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False)
class Cos(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False)
class Exp(Expr):
    operand: Expr


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


# ---------------------------------------------------------------------------
# Smart constructors (constant folding only, no other rewriting)
# ---------------------------------------------------------------------------

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def power(a: Expr, exponent: int) -> Expr:
    if isinstance(a, Const):
        Pow(a, exponent)  # validate the exponent even when folding
        return Const(a.value ** exponent)
    return Pow(a, exponent)


def sin(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(math.sin(a.value))
    return Sin(a)


def cos(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(math.cos(a.value))
    return Cos(a)


def exp(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(math.exp(a.value))
    return Exp(a)


def lin_comb(coefficients: Sequence[float], terms: Sequence[Expr], constant: float = 0.0) -> Expr:
    """Build sum_i c_i * t_i + constant, omitting exactly-zero coefficients."""
    if len(coefficients) != len(terms):
        raise ValueError("coefficient/term length mismatch")
    acc: Expr | None = Const(constant) if constant != 0.0 else None
    for c, t in zip(coefficients, terms):
        c = float(c)
        if c == 0.0:
            continue
        term = t if c == 1.0 else mul(Const(c), t)
        acc = term if acc is None else add(acc, term)
    return acc if acc is not None else Const(0.0)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul)):
        return (e.left, e.right)
    if isinstance(e, (Neg, Sin, Cos, Exp)):
        return (e.operand,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def max_var_index(e: Expr) -> int:
    """Largest variable index used in the expression, -1 if none."""
    best = -1
    memo: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in memo:
            continue
        memo.add(id(node))
        if isinstance(node, Var):
            best = max(best, node.index)
        else:
            stack.extend(_children(node))
    return best


def node_count(e: Expr) -> int:
    """Number of nodes of the expression *tree* (shared subtrees counted per use)."""
    memo: dict[int, int] = {}

    def count(node: Expr) -> int:
        key = id(node)
        if key in memo:
            return memo[key]
        total = 1 + sum(count(c) for c in _children(node))
        memo[key] = total
        return total

    return count(e)


def substitute(e: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace Var(i) with replacements[i] throughout.

    Shared subtrees map to shared subtrees, and nodes whose children are
    unchanged are returned as-is, so an identity substitution returns the
    original expression object.
    """
    reps = list(replacements)
    memo: dict[int, Expr] = {}

    def walk(node: Expr) -> Expr:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Var):
            if node.index >= len(reps):
                raise ValueError(f"missing replacement for variable {node.index}")
            r = reps[node.index]
            if isinstance(r, Var) and r.index == node.index:
                r = node
        elif isinstance(node, Const):
            r = node
        elif isinstance(node, (Add, Sub, Mul)):
            a, b = walk(node.left), walk(node.right)
            r = node if (a is node.left and b is node.right) else type(node)(a, b)
        elif isinstance(node, Pow):
            a = walk(node.base)
            r = node if a is node.base else Pow(a, node.exponent)
        else:
            a = walk(node.operand)
            r = node if a is node.operand else type(node)(a)
        memo[key] = r
        return r

    return walk(e)


# ---------------------------------------------------------------------------
# Intervals and boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyperrectangle: one Interval per dimension."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if not self.intervals:
            raise ValueError("box needs at least one dimension")

    @classmethod
    def from_bounds(cls, bounds: Iterable[Sequence[float]]) -> "Box":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def n(self) -> int:
        return len(self.intervals)

    def lo(self) -> np.ndarray:
        return np.array([iv.lo for iv in self.intervals])

    def hi(self) -> np.ndarray:
        return np.array([iv.hi for iv in self.intervals])

    def midpoint(self) -> np.ndarray:
        return np.array([iv.mid for iv in self.intervals])

    def widths(self) -> np.ndarray:
        return np.array([iv.width for iv in self.intervals])

    def contains(self, x: Sequence[float]) -> bool:
        x = np.asarray(x, dtype=float)
        return len(x) == self.n and all(iv.contains(v) for iv, v in zip(self.intervals, x))

    def contains_box(self, other: "Box") -> bool:
        return other.n == self.n and all(
            s.lo <= o.lo and o.hi <= s.hi for s, o in zip(self.intervals, other.intervals)
        )

    def intersects(self, other: "Box") -> bool:
        return other.n == self.n and all(
            s.lo <= o.hi and o.lo <= s.hi for s, o in zip(self.intervals, other.intervals)
        )

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m uniform points inside the box, shape (m, n)."""
        return rng.uniform(self.lo(), self.hi(), size=(m, self.n))

    def bounds(self) -> list[tuple[float, float]]:
        return [(iv.lo, iv.hi) for iv in self.intervals]


# ---------------------------------------------------------------------------
# Tape compilation and evaluation
# ---------------------------------------------------------------------------

_MAG_MASK = np.int64(0x7FFF_FFFF_FFFF_FFFF)     # every bit but the sign
_INF_BITS = np.int64(0x7FF0_0000_0000_0000)     # +inf; larger magnitudes are NaN
_NEG_ZERO_BITS = np.int64(-0x8000_0000_0000_0000)
# 2*|bits| - 4, read unsigned, is at least this for 0, 5e-324, max, inf and NaN
_EDGE = np.uint64(2 * 0x7FF0_0000_0000_0000 - 6)
_STEP = np.array([[-2], [2]])                   # row 0 (lo) steps down, row 1 (hi) up
_PAST_INF = np.array([-np.inf, np.inf]).view(np.int64)


def _pad_out(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Two ulps outward: nextafter(nextafter(lo, -inf), -inf) and the same for
    hi towards +inf, bit for bit, stepped on the IEEE bit pattern.

    Shields against non-monotone last-bit rounding in the vectorised libm
    kernels.  Doubles of one sign are ordered like their bit patterns read
    as int64, so an ulp is one integer step: `((bits >> 63) << 2) ^ step`
    is -2/+2 for lo and +2/-2 for hi, by sign.  Only 0 and 5e-324 (which
    cross zero), max and inf (which run past infinity) and NaN need another
    answer; they are rare and patched after the integer pass.
    """
    both = np.array((lo, hi), dtype=np.float64)
    bits = both.reshape(2, -1).view(np.int64)
    out = bits + (((bits >> 63) << 2) ^ _STEP)
    edge = ((bits << 1) - 4).view(np.uint64) >= _EDGE
    if np.count_nonzero(edge):
        rows, cols = np.nonzero(edge)
        b, o = bits[rows, cols], out[rows, cols]
        mag = b & _MAG_MASK
        fixed = np.where((o & _MAG_MASK) <= _INF_BITS, o,            # the step was right
                         np.where(mag <= 1, (_NEG_ZERO_BITS + 2) - b,  # crossed zero
                                  _PAST_INF[rows]))                  # ran past infinity
        out[rows, cols] = np.where(mag > _INF_BITS, b, fixed)        # NaN stays NaN
    out = out.view(np.float64).reshape(both.shape)
    return out[0], out[1]


def _contains_centers(lo, hi, centers: np.ndarray) -> np.ndarray:
    """Row i is True where [lo, hi] contains centers[i] + 2*pi*k for some integer k.

    The two rows of `centers`, shape (2, 1), share one pass of the
    element-wise operations over a stacked broadcast.  Fuzzed towards
    "contains", which can only widen the resulting enclosure.
    """
    centers = centers.reshape((2,) + (1,) * max(np.ndim(lo), np.ndim(hi)))
    # t = (lo - c) / 2pi, u = (hi - c) / 2pi and fuzz = 4e-16 * (2 + |t| + |u|),
    # worked in place: fresh (2, m) temporaries cost more than the arithmetic
    t = lo - centers
    t /= _TWO_PI
    u = hi - centers
    u /= _TWO_PI
    fuzz = np.abs(t)
    fuzz += 2.0
    fuzz += np.abs(u)
    fuzz *= 4e-16
    u += fuzz
    t -= fuzz
    return np.floor(u, out=u) >= np.ceil(t, out=t)


# where sin and cos reach their maximum (row 0) and minimum (row 1)
_SIN_EXTREMA = np.array([[_HALF_PI], [-_HALF_PI]])
_COS_EXTREMA = np.array([[0.0], [math.pi]])


def _trig_range(values_lo: np.ndarray, values_hi: np.ndarray,
                has_max: np.ndarray, has_min: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out_lo = np.minimum(values_lo, values_hi)
    out_hi = np.maximum(values_lo, values_hi)
    out_lo, out_hi = _pad_out(out_lo, out_hi)
    out_hi = np.where(has_max, 1.0, np.minimum(out_hi, 1.0))
    out_lo = np.where(has_min, -1.0, np.maximum(out_lo, -1.0))
    return out_lo, out_hi


def _sin_range(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sound enclosure of sin over [lo, hi] via quadrant analysis.

    An interior extremum pi/2 + 2*pi*k (max) or -pi/2 + 2*pi*k (min) forces
    the corresponding bound to +-1; otherwise the endpoint values bound the
    range.
    """
    has_max, has_min = _contains_centers(lo, hi, _SIN_EXTREMA)
    return _trig_range(np.sin(lo), np.sin(hi), has_max, has_min)


def _cos_range(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sound enclosure of cos; endpoints must come from cos itself, since a
    sin(x + pi/2) rewrite would shift by an inexact constant the point
    evaluator never sees."""
    has_max, has_min = _contains_centers(lo, hi, _COS_EXTREMA)
    return _trig_range(np.cos(lo), np.cos(hi), has_max, has_min)


def _pow_range(lo: np.ndarray, hi: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    if p == 1:
        return lo, hi
    if p % 2 == 1:
        return _pad_out(np.power(lo, p), np.power(hi, p))
    mag = np.maximum(np.abs(lo), np.abs(hi))
    out_hi = np.power(mag, p)
    inner = np.minimum(np.abs(lo), np.abs(hi))
    straddles = (lo <= 0.0) & (hi >= 0.0)
    out_lo = np.where(straddles, 0.0, np.power(inner, p))
    return _pad_out(out_lo, out_hi)


def _column(register, m: int) -> np.ndarray:
    """A root's register as an (m,) array; a constant one is materialised afresh."""
    return register if np.ndim(register) == 1 else np.full(m, register)


class Tape:
    """Flat evaluation program for a set of expressions over a shared DAG.

    Compiling once and evaluating over batches of points (or boxes) is the
    workhorse behind the verifier and the dense-grid tooling.  `ops` holds
    one instruction per DAG node.  Constants stay Python floats in both
    evaluation modes and numpy broadcasts them; only a root that is constant
    is materialised as an (m,) array.  A product with a constant operand
    compiles to "scale" (c, register), which needs two products, not four.
    """

    def __init__(self, roots: Sequence[Expr]):
        self.ops: list[tuple] = []
        self.outputs: list[int] = []
        memo: dict[int, int] = {}

        def walk(e: Expr) -> int:
            key = id(e)
            if key in memo:
                return memo[key]
            if isinstance(e, Var):
                instr = ("var", e.index, None)
            elif isinstance(e, Const):
                instr = ("const", e.value, None)
            elif isinstance(e, (Add, Sub, Mul)):
                a, b = walk(e.left), walk(e.right)
                instr = (type(e).__name__.lower(), a, b)
                if isinstance(e, Mul) and a != b:
                    if isinstance(e.left, Const):
                        instr = ("scale", e.left.value, b)
                    elif isinstance(e.right, Const):
                        instr = ("scale", e.right.value, a)
            elif isinstance(e, Pow):
                instr = ("pow", walk(e.base), e.exponent)
            elif isinstance(e, Neg):
                instr = ("neg", walk(e.operand), None)
            elif isinstance(e, Sin):
                instr = ("sin", walk(e.operand), None)
            elif isinstance(e, Cos):
                instr = ("cos", walk(e.operand), None)
            elif isinstance(e, Exp):
                instr = ("exp", walk(e.operand), None)
            else:
                raise TypeError(f"unknown expression node {type(e).__name__}")
            self.ops.append(instr)
            memo[key] = len(self.ops) - 1
            return memo[key]

        self.outputs = [walk(r) for r in roots]
        self.n_vars = 1 + max(
            (instr[1] for instr in self.ops if instr[0] == "var"), default=-1
        )

    def eval_points(self, points: np.ndarray) -> list[np.ndarray]:
        """Evaluate every root at each row of `points` (shape (m, n))."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array (m, n)")
        if points.shape[1] < self.n_vars:
            raise ValueError("variable index out of range")
        regs: list = []
        for op, a, b in self.ops:
            if op == "var":
                regs.append(points[:, a])
            elif op == "const":
                regs.append(a)
            elif op == "scale":
                regs.append(a * regs[b])
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
            else:  # pow
                regs.append(np.power(regs[a], b))
        m = points.shape[0]
        return [_column(regs[i], m) for i in self.outputs]

    def eval_boxes(self, lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Enclosures of every root over each box (rows of lo/hi, shape (m, n)).

        Subtraction and multiplication of a register with itself are resolved
        exactly (x - x = 0, x * x = x^2): composed dynamics repeat subtrees,
        and this keeps those enclosures from collapsing to the naive
        dependency-blind bound.  For c * [l, h] the four-product rule gives
        min/max over {c*l, c*h} twice over, so "scale" takes them once.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("lo/hi must be matching 2-D arrays")
        if lo.shape[1] < self.n_vars:
            raise ValueError("variable index out of range")
        regs: list[tuple] = []
        for op, a, b in self.ops:
            if op == "var":
                regs.append((lo[:, a], hi[:, a]))
            elif op == "const":
                regs.append((a, a))
            elif op == "scale":
                p1, p2 = a * regs[b][0], a * regs[b][1]
                regs.append((np.minimum(p1, p2), np.maximum(p1, p2)))
            elif op == "add":
                regs.append((regs[a][0] + regs[b][0], regs[a][1] + regs[b][1]))
            elif op == "sub":
                if a == b:
                    regs.append((0.0, 0.0))
                else:
                    regs.append((regs[a][0] - regs[b][1], regs[a][1] - regs[b][0]))
            elif op == "mul":
                if a == b:
                    regs.append(_pow_range(regs[a][0], regs[a][1], 2))
                else:
                    al, ah = regs[a]
                    bl, bh = regs[b]
                    p1, p2, p3, p4 = al * bl, al * bh, ah * bl, ah * bh
                    regs.append((
                        np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
                        np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
                    ))
            elif op == "neg":
                regs.append((-regs[a][1], -regs[a][0]))
            elif op == "sin":
                regs.append(_sin_range(*regs[a]))
            elif op == "cos":
                regs.append(_cos_range(*regs[a]))
            elif op == "exp":
                regs.append(_pad_out(np.exp(regs[a][0]), np.exp(regs[a][1])))
            else:  # pow
                regs.append(_pow_range(regs[a][0], regs[a][1], b))
        m = lo.shape[0]
        return [(_column(regs[i][0], m), _column(regs[i][1], m)) for i in self.outputs]


def eval_point(e: Expr, x: Sequence[float]) -> float:
    """Evaluate the expression at a single point."""
    x = np.asarray(x, dtype=float)
    tape = Tape([e])
    if x.ndim != 1 or len(x) < tape.n_vars:
        raise ValueError("variable index out of range")
    return float(tape.eval_points(x[None, :])[0][0])


def eval_interval(e: Expr, box: Box) -> Interval:
    """Sound enclosure of the expression's range over the box.

    Raises ValueError if the enclosure overflows to infinity (possible with
    deeply nested exp over wide boxes); callers needing raw, possibly
    non-finite bounds can use Tape.eval_boxes directly.
    """
    tape = Tape([e])
    if box.n < tape.n_vars:
        raise ValueError("variable index out of range")
    # an overflow surfaces as the ValueError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        (lo, hi), = tape.eval_boxes(box.lo()[None, :], box.hi()[None, :])
    return Interval(float(lo[0]), float(hi[0]))


# ---------------------------------------------------------------------------
# Prefix-notation text form
# ---------------------------------------------------------------------------

_UNARY = {"neg": Neg, "sin": Sin, "cos": Cos, "exp": Exp}
_BINARY = {"add": Add, "sub": Sub, "mul": Mul}


def format_expr(e: Expr) -> str:
    """Serialise to prefix notation, e.g. `(add (var 0) (const 1.0))`."""
    if isinstance(e, Var):
        return f"(var {e.index})"
    if isinstance(e, Const):
        return f"(const {e.value!r})"
    if isinstance(e, (Add, Sub, Mul)):
        op = type(e).__name__.lower()
        return f"({op} {format_expr(e.left)} {format_expr(e.right)})"
    if isinstance(e, Pow):
        return f"(pow {format_expr(e.base)} {e.exponent})"
    op = type(e).__name__.lower()
    return f"({op} {format_expr(e.operand)})"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_expr(text: str) -> Expr:
    """Parse the prefix text form back into an expression tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression text")
    pos = 0

    def parse() -> Expr:
        nonlocal pos
        if tokens[pos] != "(":
            raise ValueError(f"expected '(' at token {pos}: {tokens[pos]!r}")
        pos += 1
        op = tokens[pos]
        pos += 1
        if op == "var":
            node: Expr = Var(int(tokens[pos]))
            pos += 1
        elif op == "const":
            node = Const(float(tokens[pos]))
            pos += 1
        elif op in _BINARY:
            left = parse()
            right = parse()
            node = _BINARY[op](left, right)
        elif op == "pow":
            base = parse()
            node = Pow(base, int(tokens[pos]))
            pos += 1
        elif op in _UNARY:
            node = _UNARY[op](parse())
        else:
            raise ValueError(f"unknown operator {op!r}")
        if tokens[pos] != ")":
            raise ValueError(f"expected ')' at token {pos}")
        pos += 1
        return node

    try:
        result = parse()
    except IndexError:  # only the token reads index, and only past the end
        raise ValueError("unexpected end of expression text") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens after expression")
    return result
