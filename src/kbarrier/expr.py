"""Symbolic scalar expressions with exact point evaluation and sound interval evaluation.

The grammar is deliberately small: variables, constants, +, -, *, unary
negation, integer powers (exponent >= 1), sin, cos and exp.  Division is
excluded so interval evaluation never has to split around a zero
denominator.  Expression trees are immutable after construction and may
share subtrees freely; evaluation is memoised over shared nodes, so a
deeply composed expression costs what its DAG costs, not its tree.

Which node types exist is decided in one place: `_NODES` maps each prefix
name (the lower-cased class name) to its class, binary and unary operators
share the `_Binary` and `_Unary` bases, and `_children` lists a node's
operands.  Every structural pass (Tape compilation, `substitute`,
`node_count`, `max_var_index`, `format_expr`) runs on the one walk
`_postorder`, which visits each distinct node once on an explicit stack;
`parse_expr` keeps its own operator stack.  No pass recurses, so nesting
depth is limited by memory, not by Python's recursion limit.

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
from typing import Iterable, Iterator, Sequence

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
class _Binary(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class _Unary(Expr):
    operand: Expr


class Add(_Binary):
    """left + right"""


class Sub(_Binary):
    """left - right"""


class Mul(_Binary):
    """left * right"""


class Neg(_Unary):
    """-operand"""


class Sin(_Unary):
    """sin(operand)"""


class Cos(_Unary):
    """cos(operand)"""


class Exp(_Unary):
    """exp(operand)"""


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


# The node table: every node class by its prefix name, the lower-cased class
# name that the text form and the Tape's instructions use.
_NODES = {cls.__name__.lower(): cls
          for cls in (Var, Const, Add, Sub, Mul, Neg, Pow, Sin, Cos, Exp)}


def _children(e: Expr) -> tuple[Expr, ...]:
    """The operands of a node, left to right; a leaf has none."""
    if isinstance(e, _Binary):
        return (e.left, e.right)
    if isinstance(e, _Unary):
        return (e.operand,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


# ---------------------------------------------------------------------------
# Smart constructors (constant folding only, no other rewriting)
# ---------------------------------------------------------------------------

def _folding(cls: type, fold):
    """Constructor of `cls` nodes that folds all-constant operands with `fold`."""
    def make(*operands: Expr) -> Expr:
        for a in operands:
            if not isinstance(a, Const):
                return cls(*operands)
        return Const(fold(*[a.value for a in operands]))

    make.__name__ = make.__qualname__ = cls.__name__.lower()
    return make


add = _folding(Add, operator.add)
sub = _folding(Sub, operator.sub)
mul = _folding(Mul, operator.mul)
neg = _folding(Neg, operator.neg)
sin = _folding(Sin, math.sin)
cos = _folding(Cos, math.cos)
exp = _folding(Exp, math.exp)


def power(a: Expr, exponent: int) -> Expr:
    if isinstance(a, Const):
        Pow(a, exponent)  # validate the exponent even when folding
        return Const(a.value ** exponent)
    return Pow(a, exponent)


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
# The structural walk and the passes built on it
# ---------------------------------------------------------------------------

def _postorder(roots: Iterable[Expr]) -> Iterator[tuple[Expr, tuple[Expr, ...]]]:
    """Each distinct node reachable from `roots` once, with its operands.

    Children come before their parents and left before right: the order in
    which a memoised recursive walk would finish the nodes, but on an
    explicit stack, so depth is limited by memory only.
    """
    done: set[int] = set()
    stack: list = list(roots)[::-1]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # a node whose operands are done
            node, kids = node
        elif id(node) in done:
            continue
        else:
            kids = _children(node)
            if kids:
                stack.append((node, kids))
                stack += kids[::-1]
                continue
        done.add(id(node))
        yield node, kids


def max_var_index(e: Expr) -> int:
    """Largest variable index used in the expression, -1 if none."""
    return max((node.index for node, _ in _postorder([e]) if isinstance(node, Var)),
               default=-1)


def node_count(e: Expr) -> int:
    """Number of nodes of the expression *tree* (shared subtrees counted per use)."""
    count: dict[int, int] = {}
    for node, kids in _postorder([e]):
        count[id(node)] = 1 + sum([count[id(k)] for k in kids])
    return count[id(e)]


def substitute(e: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace Var(i) with replacements[i] throughout.

    Shared subtrees map to shared subtrees, and nodes whose children are
    unchanged are returned as-is, so an identity substitution returns the
    original expression object.
    """
    reps = list(replacements)
    image: dict[int, Expr] = {}
    for node, kids in _postorder([e]):
        if isinstance(node, Var):
            if node.index >= len(reps):
                raise ValueError(f"missing replacement for variable {node.index}")
            r = reps[node.index]
            if isinstance(r, Var) and r.index == node.index:
                r = node
        else:
            new = tuple([image[id(k)] for k in kids])
            if new == kids:  # nodes compare by identity
                r = node
            elif isinstance(node, Pow):
                r = Pow(new[0], node.exponent)
            else:
                r = type(node)(*new)
        image[id(node)] = r
    return image[id(e)]


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
        register: dict[int, int] = {}
        for node, kids in _postorder(roots):
            if isinstance(node, Var):
                instr = ("var", node.index, None)
            elif isinstance(node, Const):
                instr = ("const", node.value, None)
            elif isinstance(node, Pow):
                instr = ("pow", register[id(kids[0])], node.exponent)
            elif isinstance(node, _Unary):
                instr = (type(node).__name__.lower(), register[id(kids[0])], None)
            else:
                left, right = kids
                a, b = register[id(left)], register[id(right)]
                instr = (type(node).__name__.lower(), a, b)
                if isinstance(node, Mul) and a != b:
                    if isinstance(left, Const):
                        instr = ("scale", left.value, b)
                    elif isinstance(right, Const):
                        instr = ("scale", right.value, a)
            register[id(node)] = len(self.ops)
            self.ops.append(instr)
        self.outputs: list[int] = [register[id(r)] for r in roots]
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

def format_expr(e: Expr) -> str:
    """Serialise to prefix notation, e.g. `(add (var 0) (const 1.0))`."""
    # Each distinct node's text is a list of strings and of its operands'
    # lists, so a shared or deep subtree is written once, not copied per level.
    pieces: dict[int, str | list] = {}
    for node, kids in _postorder([e]):
        if isinstance(node, Var):
            pieces[id(node)] = f"(var {node.index})"
        elif isinstance(node, Const):
            pieces[id(node)] = f"(const {node.value!r})"
        else:
            text: list = [f"({type(node).__name__.lower()}"]
            for k in kids:
                text += (" ", pieces[id(k)])
            text.append(f" {node.exponent})" if isinstance(node, Pow) else ")")
            pieces[id(node)] = text
    out: list[str] = []
    stack = [pieces[id(e)]]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_expr(text: str) -> Expr:
    """Parse the prefix text form back into an expression tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression text")
    pos = 0
    # open operators, innermost last, each with the operands read so far
    pending: list[tuple[type, list[Expr]]] = []
    try:
        while True:
            if tokens[pos] != "(":
                raise ValueError(f"expected '(' at token {pos}: {tokens[pos]!r}")
            op = tokens[pos + 1]
            pos += 2
            cls = _NODES.get(op)
            if cls is Var:
                node: Expr = Var(int(tokens[pos]))
            elif cls is Const:
                node = Const(float(tokens[pos]))
            elif cls is None:
                raise ValueError(f"unknown operator {op!r}")
            else:
                pending.append((cls, []))
                continue
            pos += 1
            # close the leaf and every operator whose last operand it is
            while True:
                if tokens[pos] != ")":
                    raise ValueError(f"expected ')' at token {pos}")
                pos += 1
                if not pending:
                    if pos != len(tokens):
                        raise ValueError("trailing tokens after expression")
                    return node
                cls, operands = pending[-1]
                operands.append(node)
                if issubclass(cls, _Binary) and len(operands) == 1:
                    break
                pending.pop()
                if cls is Pow:
                    node = Pow(operands[0], int(tokens[pos]))
                    pos += 1
                else:
                    node = cls(*operands)
    except IndexError:  # only the token reads index, and only past the end
        raise ValueError("unexpected end of expression text") from None
