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
`node_count`, `max_var_index`, `collect_polynomial`, `format_expr`) runs on
the one walk `_postorder`, which visits each distinct node once on an
explicit stack; `parse_expr` keeps its own operator stack.  No pass
recurses, so nesting depth is limited by memory, not by Python's recursion
limit.  `collect_polynomial` expands a polynomial exactly, in integers over
a power of two, and emits it as a sum of monomials with coefficients
rounded to nearest.

Two evaluation modes are provided:

* point evaluation (`eval_point`, `Tape.eval_points`) -- ordinary float
  arithmetic, vectorised over sample batches;
* box evaluation (`eval_interval`, `Tape.eval_boxes`) -- an enclosure of
  the expression's range over a box, as a (lo, hi) pair of floats (arrays
  of them over a batch of boxes).  It is the naive enclosure of the box
  rules intersected with the mean-value form f(mid) + grad f(box) . (box -
  mid) (Moore, Kearfott & Cloud, *Introduction to Interval Analysis*,
  2009), whose interval gradient is carried forward through the same run
  as the naive enclosures.  The form is widened by a rounding allowance: a
  first-order bound on the point evaluator's rounding error over the box,
  carried along the run as well.  Results of sin, cos, exp and pow are
  widened by two ulps (`_pad_out`, two `np.nextafter` steps per bound) so
  the enclosure holds despite last-bit rounding differences between code
  paths.  add, sub, mul and scale (a product with a constant) still round
  to nearest, so an enclosure can miss the exact real range by an ulp.
  The naive enclosures are isotonic, a sub-box never gets a wider one, but
  the intersection is not: it is never wider than the box's own naive
  enclosure, and much tighter on narrow boxes, yet a sub-box can get a
  wider one than its parent.

Each op's point rule, box rule and centred rule (its box rule's enclosure
with its partial derivatives) sit side by side in one table, `_RULES`, and
`Tape` runs both modes through one loop over it.  The constructors (`add`,
`sub`, `mul`, `neg`, `power`, `sin`, `cos`, `exp`) are the node classes
themselves and fold nothing, so a constant subtree such as `sin(Const(c))`
is evaluated by `_RULES` too, with the same padded enclosure as any other
`sin`.

A `Box` is two read-only float arrays, `lower` and `upper`: the form that
the interval search, the samplers and the region tests (`Box.contains`) use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Expr", "Var", "Const", "Add", "Sub", "Mul", "Neg", "Pow", "Sin", "Cos", "Exp",
    "Box",
    "add", "sub", "mul", "neg", "power", "sin", "cos", "exp", "lin_comb",
    "eval_point", "eval_interval", "substitute",
    "format_expr", "parse_expr", "node_count", "max_var_index", "collect_polynomial",
    "Tape",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def checked_int(name: str, value, least: int) -> int:
    """`value` as an int (`operator.index`), or ValueError naming `name`
    unless it is an integer >= least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


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

    def __repr__(self) -> str:
        # The class name and the DAG size, never the text: a composed
        # expression's text grows with its tree, exponentially in k.
        if isinstance(self, Var):
            return f"Var({self.index})"
        if isinstance(self, Const):
            return f"Const({self.value!r})"
        size = sum(1 for _ in _postorder([self]))
        return f"{type(self).__name__}(<DAG of {size} nodes>)"


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", checked_int("variable index", self.index, 0))


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value}")


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
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


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", checked_int("power exponent", self.exponent, 1))


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
# Constructors: the node classes themselves, with no folding or rewriting
# ---------------------------------------------------------------------------

add, sub, mul, neg, power, sin, cos, exp = Add, Sub, Mul, Neg, Pow, Sin, Cos, Exp


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


# A polynomial during expansion is (coefficients, s): each monomial, as its
# exponents of x0, x1, ... with trailing zeros dropped, mapped to a nonzero
# integer c, its coefficient being c / 2**s.  Every float is such a dyadic
# rational, and sums and products of them stay dyadic, so the expansion is
# exact in integer arithmetic with no gcd to take.

def _poly_add(p: tuple, q: tuple, sign: int) -> tuple:
    (a, s), (b, t) = p, q
    u = max(s, t)
    out = {k: c << (u - s) for k, c in a.items()}
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * (c << (u - t))
    return {k: c for k, c in out.items() if c}, u


def _poly_mul(p: tuple, q: tuple) -> tuple:
    (a, s), (b, t) = p, q
    out: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            long, short = (i, j) if len(i) >= len(j) else (j, i)
            key = tuple([x + y for x, y in zip(long, short)]) + long[len(short):]
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}, s + t


def _expand(e: Expr) -> tuple[dict[tuple[int, ...], int], int, int] | None:
    """The exact expansion of a polynomial, (coefficients, s, nodes).

    The coefficients are in the form above, over 2**s, and nodes is e's
    number of distinct nodes.  None if e uses sin, cos or exp, or if a
    subexpression expands to more terms than there are nodes up to it: so
    no intermediate has more terms than e has nodes.
    """
    polys: dict[int, tuple] = {}
    nodes = 0
    for node, kids in _postorder([e]):
        nodes += 1
        p = [polys[id(k)] for k in kids]
        if isinstance(node, Var):
            r = {(0,) * node.index + (1,): 1}, 0
        elif isinstance(node, Const):
            num, den = node.value.as_integer_ratio()
            r = ({(): num} if num else {}), den.bit_length() - 1
        elif isinstance(node, (Add, Sub)):
            r = _poly_add(p[0], p[1], 1 if isinstance(node, Add) else -1)
        elif isinstance(node, Neg):
            r = {k: -c for k, c in p[0][0].items()}, p[0][1]
        elif isinstance(node, Mul):
            r = _poly_mul(p[0], p[1])
        elif isinstance(node, Pow):
            r = p[0]
            for _ in range(node.exponent - 1):
                if len(r[0]) > nodes:
                    return None
                r = _poly_mul(r, p[0])
        else:
            return None
        if len(r[0]) > nodes:
            return None
        polys[id(node)] = r
    return polys[id(e)] + (nodes,)


def collect_polynomial(e: Expr) -> Expr:
    """e as its collected polynomial, sum of c_a * x^a, when that form is smaller.

    A polynomial (variables, constants, +, -, *, negation and powers only)
    is expanded exactly, and each coefficient is rounded to the nearest
    float.  The constant term comes first, then the monomials by degree,
    and a monomial is a product of shared variables and powers.  A
    one-hidden-layer `square` network of width h has about 11h nodes in two
    variables, and it collects to the 6 terms of a quadratic (21 nodes).
    The collected form is returned when it has fewer distinct nodes than e;
    otherwise, and when `_expand` gives up, e itself is returned.
    """
    expanded = _expand(e)
    if expanded is None:
        return e
    coefficients, s, nodes = expanded
    try:  # int / int rounds to nearest
        values = {a: c / (1 << s) for a, c in coefficients.items()}
    except OverflowError:
        return e
    constant = values.pop((), 0.0)
    xs = [Var(i) for i in range(max(map(len, values), default=0))]
    powers: dict[tuple[int, int], Expr] = {}
    monomials = sorted(values, key=lambda a: (sum(a), [-k for k in a]))
    terms = []
    for a in monomials:
        factors = [powers.setdefault((i, k), xs[i] if k == 1 else Pow(xs[i], k))
                   for i, k in enumerate(a) if k]
        monomial = factors[0]
        for f in factors[1:]:
            monomial = Mul(monomial, f)
        terms.append(monomial)
    collected = lin_comb([values[a] for a in monomials], terms, constant)
    return collected if sum(1 for _ in _postorder([collected])) < nodes else e


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned hyperrectangle: read-only (n,) float arrays of finite
    bounds, lower <= upper.  Boxes compare by identity."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or not lower.size:
            raise ValueError(f"box bounds must be non-empty 1-D arrays of one shape, "
                             f"got {lower.shape} and {upper.shape}")
        if not np.all(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper)):
            raise ValueError(f"box bounds must be finite with lower <= upper: {lower}, {upper}")
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_bounds(cls, bounds: Iterable[Sequence[float]]) -> "Box":
        pairs = [(lo, hi) for lo, hi in bounds]
        return cls([lo for lo, _ in pairs], [hi for _, hi in pairs])

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def lo(self) -> np.ndarray:
        return self.lower

    def hi(self) -> np.ndarray:
        return self.upper

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: Sequence[float] | np.ndarray) -> bool | np.ndarray:
        """Whether one point (shape (n,)) lies in the box, or a mask of shape
        (m,) over the rows of an (m, n) batch.  A point of another dimension
        is not contained; NaN never is."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1 and points.shape != self.lower.shape:
            return False
        inside = np.all((points >= self.lower) & (points <= self.upper), axis=-1)
        return bool(inside) if points.ndim == 1 else inside

    def contains_box(self, other: "Box") -> bool:
        return other.n == self.n and bool(
            np.all(self.lower <= other.lower) and np.all(other.upper <= self.upper))

    def intersects(self, other: "Box") -> bool:
        return other.n == self.n and bool(
            np.all(self.lower <= other.upper) and np.all(other.lower <= self.upper))

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m uniform points inside the box, shape (m, n)."""
        return rng.uniform(self.lower, self.upper, size=(m, self.n))

    def bounds(self) -> list[tuple[float, float]]:
        return list(zip(self.lower.tolist(), self.upper.tolist()))


# ---------------------------------------------------------------------------
# Tape compilation and evaluation
# ---------------------------------------------------------------------------

def _pad_out(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Two ulps outward: nextafter(nextafter(lo, -inf), -inf) and the same for
    hi towards +inf.

    Shields against non-monotone last-bit rounding in the vectorised libm
    kernels.  Since the centred refinement the search's levels are small:
    on the benchmark's workloads most calls pad fewer than 64 values per
    bound and none more than about 600 (a centred sin or cos pads its two
    ranges in one call).  There four plain `nextafter` calls cost about half
    of one integer pass over the IEEE bit patterns, which is cheaper only
    above a few hundred values.  +-max steps to +-inf and a NaN stays NaN,
    without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.nextafter(np.nextafter(lo, -np.inf), -np.inf)
        hi = np.nextafter(np.nextafter(hi, np.inf), np.inf)
    return lo, hi


def _contains_centers(lo, hi, centers: np.ndarray) -> np.ndarray:
    """Row i is True where [lo, hi] contains centers[i] + 2*pi*k for some integer k.

    Every row of `centers`, shape (c, 1), shares one pass of the
    element-wise operations over a stacked broadcast.  Fuzzed towards
    "contains", which can only widen the resulting enclosure.
    """
    centers = centers.reshape((len(centers),) + (1,) * max(np.ndim(lo), np.ndim(hi)))
    # t = (lo - c) / 2pi, u = (hi - c) / 2pi and fuzz = 4e-16 * (2 + |t| + |u|),
    # worked in place: fresh (c, m) temporaries cost more than the arithmetic
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
# sin's maximum and minimum, then cos's
_SIN_COS_EXTREMA = np.concatenate((_SIN_EXTREMA, _COS_EXTREMA))


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


def _sin_cos_ranges(lo, hi) -> tuple[tuple, tuple]:
    """`_sin_range(lo, hi)` and `_cos_range(lo, hi)`, bit for bit, from one
    quadrant analysis: one extremum test for all four extrema, one sin and
    one cos call over the stacked endpoints, and one `_trig_range` pass in
    which row 0 is sin and row 1 is cos."""
    has = _contains_centers(lo, hi, _SIN_COS_EXTREMA)
    ends = np.array((lo, hi))
    values = np.empty((2,) + ends.shape)     # values[f, end]: f = sin, cos
    np.sin(ends, out=values[0])
    np.cos(ends, out=values[1])
    out_lo, out_hi = _trig_range(values[:, 0], values[:, 1], has[0::2], has[1::2])
    return (out_lo[0], out_hi[0]), (out_lo[1], out_hi[1])


def _sin_centred(x, _):
    """sin's enclosure and its partial, the range of cos."""
    sin_range, cos_range = _sin_cos_ranges(x[0], x[1])
    return sin_range, (cos_range,)


def _cos_centred(x, _):
    """cos's enclosure and its partial, the negated range of sin."""
    sin_range, cos_range = _sin_cos_ranges(x[0], x[1])
    return cos_range, (_neg_range(sin_range),)


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


def _box_mul(x, y):
    (xl, xh), (yl, yh) = x, y
    p1, p2, p3, p4 = xl * yl, xl * yh, xh * yl, xh * yh
    return (np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
            np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))


def _box_scale(c, x):
    p1, p2 = c[0] * x[0], c[0] * x[1]
    return np.minimum(p1, p2), np.maximum(p1, p2)


def _pow_slope(x, p: int):
    """p * x^(p-1) over the enclosure x: pow's partial derivative."""
    if p == 1:
        return 1.0
    lo, hi = _pow_range(x[0], x[1], p - 1)
    return p * lo, p * hi


def _neg_range(x):
    return -x[1], -x[0]


def _entry(point, box, partials):
    """An op's rules, its centred rule being `box` followed by `partials(x, y, z)`."""
    def centred(x, y):
        z = box(x, y)
        return z, partials(x, y, z)
    return point, box, centred


# The op table: each op a Tape runs, with its point rule, its box rule and its
# centred rule.  A rule takes the op's two operand registers (floats, or
# (lo, hi) pairs on boxes); a unary op ignores the second, and pow's is its
# exponent.  "scale" is a product with a constant first operand: c * [l, h]
# needs min/max over {c*l, c*h} once, where the four-product rule takes them
# twice over.  "sub_self" and "mul_self" have one register as both operands
# and are resolved exactly on boxes (x - x = 0, x * x = x^2): composed
# dynamics repeat subtrees, and this keeps those enclosures from collapsing
# to the naive dependency-blind bound.
# The centred rule takes the operands' enclosures and returns the op's own, z,
# with its partials: an enclosure of the op's partial derivative by each
# operand register in turn (one register for a unary op, pow, "sub_self" and
# "mul_self"), a float where the partial is an exact constant, else a
# (lo, hi) pair.  z is the box rule's enclosure, bit for bit.  Most ops form
# their partials from z and the operands (`_entry`); sin and cos take both
# from one quadrant analysis, since each one's partial is the other's range.
_RULES = {
    "add": _entry(operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1]),
                  lambda x, y, z: (1.0, 1.0)),
    "sub": _entry(operator.sub, lambda x, y: (x[0] - y[1], x[1] - y[0]),
                  lambda x, y, z: (1.0, -1.0)),
    "sub_self": _entry(operator.sub, lambda x, _: (0.0, 0.0), lambda x, y, z: (0.0,)),
    "mul": _entry(operator.mul, _box_mul, lambda x, y, z: (y, x)),
    "mul_self": _entry(operator.mul, lambda x, _: _pow_range(x[0], x[1], 2),
                       lambda x, y, z: (_pow_slope(x, 2),)),
    "scale": _entry(operator.mul, _box_scale, lambda c, x, z: (x, c[0])),
    "neg": _entry(lambda x, _: -x, lambda x, _: _neg_range(x), lambda x, y, z: (-1.0,)),
    "pow": _entry(np.power, lambda x, p: _pow_range(x[0], x[1], p),
                  lambda x, p, z: (_pow_slope(x, p),)),
    "sin": (lambda x, _: np.sin(x), lambda x, _: _sin_range(x[0], x[1]), _sin_centred),
    "cos": (lambda x, _: np.cos(x), lambda x, _: _cos_range(x[0], x[1]), _cos_centred),
    "exp": _entry(lambda x, _: np.exp(x), lambda x, _: _pad_out(np.exp(x[0]), np.exp(x[1])),
                  lambda x, y, z: (z,)),
}


def _point_step(rules, x, y):
    return rules[0](x, y)


def _magnitude(enclosure):
    """max |v| over a (lo, hi) pair with lo <= hi."""
    return np.maximum(enclosure[1], -enclosure[0])


# How far one op's point value may be from the real result of its (point)
# operands: one rounding, or a libm result's error, is at most 4 ulps of the
# largest magnitude the op's enclosure allows.
_OP_ERROR = 2.0 ** -50
# Share of the centred form's spread added for the round-to-nearest drift of
# the gradient enclosures and of the sum itself: ample for 2^10 chained ops.
_SPREAD_ERROR = 2.0 ** -40


def _centred_step(rules, x, y):
    """One op on centred registers (enclosure, gradient enclosure, error bound).

    The gradient enclosure is a (lo, hi) pair of (n, m) arrays, or (n, 1)
    columns while it is constant across the boxes, and None for a constant.
    The error bound is a first-order bound on how far the point evaluator's
    value is from the real one anywhere in the box: 0.0 where it is exact.
    """
    xb = x[0]
    yb = y[0] if type(y) is tuple else y   # pow's second register is its exponent
    z, partials = rules[2](xb, yb)
    grad, err = None, _OP_ERROR * _magnitude(z)
    for partial, (_, g, e) in zip(partials, (x, y)):
        exact = type(partial) is float
        if exact and partial == 0.0:
            continue
        if g is not None:
            if not exact:
                term = _box_mul(partial, g)
            elif partial == 1.0:
                term = g
            else:
                term = ((partial * g[0], partial * g[1]) if partial > 0.0
                        else (partial * g[1], partial * g[0]))
            grad = term if grad is None else (grad[0] + term[0], grad[1] + term[1])
        if type(e) is not float:
            if not exact:
                e = _magnitude(partial) * e
            elif abs(partial) != 1.0:    # a +-1 partial passes e on exactly
                e = abs(partial) * e
            err = err + e
    return z, grad, err


class Tape:
    """Flat evaluation program for a set of expressions over a shared DAG.

    Compiling once and evaluating over batches of points (or boxes) is the
    workhorse behind the verifier and the dense-grid tooling.  `ops` holds
    one instruction per DAG node.  Constants stay Python floats in both
    evaluation modes and numpy broadcasts them; only a root that is constant
    is materialised as an (m,) array.  A product with a constant operand
    compiles to "scale" (c, register).

    Each op's rules live in the one table `_RULES`.  Compiling resolves
    every op to its rules and two operand registers, once, and both modes
    run the one loop `_run`, which places the leaves (variables, constants,
    pow's exponents) and then applies each op's rules through a step:
    `_point_step` for points, and for boxes `_point_step` at the midpoints
    and `_centred_step` over the boxes.

    Registers are released as soon as they are dead: `release[i]` lists the
    registers whose last reader is op i (the constant folded into a "scale"
    counts as read by it), and every evaluation mode drops them right after
    that op, so a batch holds only its live registers and the allocator can
    reuse their memory for the next ones.  An output is never released.
    """

    def __init__(self, roots: Sequence[Expr]):
        self.ops: list[tuple] = []
        self._steps: list[tuple] = []   # (register, rules, operand, operand) per non-leaf
        exponents: dict[int, int] = {}  # pow's exponents, kept at registers -1, -2, ...
        register: dict[int, int] = {}
        last_reader: dict[int, int] = {}
        for node, kids in _postorder(roots):
            i, name = len(self.ops), type(node).__name__.lower()
            a = b = register[id(kids[0])] if kids else None
            if isinstance(node, Var):
                instr = ("var", node.index, None)
            elif isinstance(node, Const):
                instr = ("const", node.value, None)
            elif isinstance(node, Pow):
                instr = ("pow", a, node.exponent)
                b = exponents.setdefault(node.exponent, -1 - len(exponents))
            elif isinstance(node, _Unary):
                instr = (name, a, None)
            else:
                left, right = kids
                b = register[id(right)]
                instr = (name, a, b)
                if a == b and isinstance(node, (Sub, Mul)):
                    name += "_self"
                elif isinstance(node, Mul):
                    if isinstance(left, Const):
                        instr, name = ("scale", left.value, b), "scale"
                    elif isinstance(right, Const):
                        instr, name, a, b = ("scale", right.value, a), "scale", b, a
            if kids:
                self._steps.append((i, _RULES[name], a, b))
            for kid in kids:
                last_reader[register[id(kid)]] = i
            register[id(node)] = i
            self.ops.append(instr)
        self.outputs: list[int] = [register[id(r)] for r in roots]
        outputs = set(self.outputs)
        self.release: list[tuple[int, ...]] = [() for _ in self.ops]
        for r, i in last_reader.items():
            if r not in outputs:
                self.release[i] += (r,)
        self._vars = [(i, j) for i, (op, j, _) in enumerate(self.ops) if op == "var"]
        self._consts = [(i, c) for i, (op, c, _) in enumerate(self.ops) if op == "const"]
        self._blank = [None] * len(self.ops) + list(exponents)[::-1]
        self.n_vars = 1 + max((j for _, j in self._vars), default=-1)

    def _run(self, step, var, const) -> list:
        """The evaluation loop: `step(rules, x, y)` applies an op's rules to
        its operand registers, `var(j)` and `const(c)` give the leaves'."""
        regs = self._blank.copy()
        for i, j in self._vars:
            regs[i] = var(j)
        for i, c in self._consts:
            regs[i] = const(c)
        release = self.release
        for i, rules, a, b in self._steps:
            regs[i] = step(rules, regs[a], regs[b])
            for r in release[i]:
                regs[r] = None
        return [regs[i] for i in self.outputs]

    def eval_points(self, points: np.ndarray) -> list[np.ndarray]:
        """Evaluate every root at each row of `points` (shape (m, n))."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array (m, n)")
        if points.shape[1] < self.n_vars:
            raise ValueError("variable index out of range")
        m = points.shape[0]
        return [_column(r, m) for r in self._run(_point_step, lambda j: points[:, j], lambda c: c)]

    def eval_boxes(self, lo: np.ndarray, hi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Enclosures of every root over each box (rows of lo/hi, shape (m, n)).

        Per root: the box rules' naive enclosure intersected with the
        centred (mean-value) form f(mid) + sum_j G_j * [-r_j, r_j], where
        mid is the box's midpoint 0.5 * (lo + hi), f(mid) its point value,
        r_j the larger of hi_j - mid_j and mid_j - lo_j, and G_j an
        enclosure of df/dx_j over the box, formed by the centred rules
        along the run that forms the naive enclosures.  The form is widened
        by twice the error bound (the centre's value and a point's value
        each lie within it of the real function) and by _SPREAD_ERROR of
        its spread.  A NaN bound of the form leaves the naive one, and a
        zero bound is always +0.0, whatever the batch width.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("lo/hi must be matching 2-D arrays")
        if lo.shape[1] < self.n_vars:
            raise ValueError("variable index out of range")
        m, n = lo.shape
        mid = 0.5 * (lo + hi)
        centre = self._run(_point_step, lambda j: mid[:, j], lambda c: c)
        unit = np.eye(n)[:, :, None]            # unit[j]: e_j as an (n, 1) column
        roots = self._run(_centred_step,
                          lambda j: ((lo[:, j], hi[:, j]), (unit[j], unit[j]), 0.0),
                          lambda c: ((c, c), None, 0.0))
        radius = np.maximum(hi - mid, mid - lo).T
        out = []
        for f, ((z_lo, z_hi), grad, err) in zip(centre, roots):
            spread = 0.0 if grad is None else (_magnitude(grad) * radius).sum(axis=0)
            half = spread + _SPREAD_ERROR * spread + 2.0 * err
            # + 0.0: fmax and fmin pick between -0.0 and +0.0 by batch width
            out.append((_column(np.fmax(z_lo, f - half) + 0.0, m),
                        _column(np.fmin(z_hi, f + half) + 0.0, m)))
        return out


def eval_point(e: Expr, x: Sequence[float]) -> float:
    """Evaluate the expression at a single point."""
    x = np.asarray(x, dtype=float)
    tape = Tape([e])
    if x.ndim != 1 or len(x) < tape.n_vars:
        raise ValueError("variable index out of range")
    return float(tape.eval_points(x[None, :])[0][0])


def eval_interval(e: Expr, box: Box) -> tuple[float, float]:
    """Sound enclosure (lo, hi) of the expression's range over the box.

    It is `Tape.eval_boxes`' enclosure: the naive one intersected with the
    centred form, so a sub-box can get a wider enclosure than its parent.

    Raises ValueError if a bound is not finite (an overflow is possible with
    deeply nested exp over wide boxes); callers needing raw, possibly
    non-finite bounds can use Tape.eval_boxes directly.
    """
    tape = Tape([e])
    if box.n < tape.n_vars:
        raise ValueError("variable index out of range")
    # an overflow surfaces as the ValueError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        (lo, hi), = tape.eval_boxes(box.lo()[None, :], box.hi()[None, :])
    lo, hi = float(lo[0]), float(hi[0])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"enclosure bounds must be finite: [{lo}, {hi}]")
    return lo, hi


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
