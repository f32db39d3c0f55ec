"""The certificate problem and its interval branch-and-bound verification.

The problem statement lives here: `SafetySpec` is the state box X with the
initial and unsafe region boxes, `KBCSpec` the horizon k and slack epsilon,
and `CONDITIONS` the four certificate conditions, negated, as one table
that the search, `check_point` and the trainer read.  The module imports
nothing from the package but `expr`, so a `valid` verdict rests on
`expr.py`, this module, and the composed maps f1 and fk that the caller
passes in.

Each negated condition is searched for a satisfying point by subdividing
its region box breadth-first, splitting along the widest dimension.  A box
is discarded once any constraint's interval enclosure proves it
infeasible (`_may_hold`, where NaN keeps a box); a box whose midpoint
satisfies every constraint under exact point evaluation (`_holds`, where
NaN never holds) is a concrete counterexample; a box narrower than delta
that can be neither discarded nor confirmed is delta-sat.  Exploration is
deterministic, so verdicts are reproducible.  The margin, the violation
amount, is read from the last constraint by `_margin`.

A box is judged once: one `Tape.eval_boxes` run gives each frontier box
its naive enclosures intersected with the centred (mean-value) form, and
the constraints' values at its midpoint, which the centred form needs
anyway.  A delta-sat margin is read from that enclosure, and a kept box's
midpoint that satisfies every constraint is a candidate witness, re-checked
alone before it is reported.  The intersection is never wider than the
naive enclosure, so it discards every box the naive one would: a
counterexample keeps its point and margin, `valid` stays `valid`, and only
a delta-sat verdict can become `valid` or move its box and margin against
a search on the naive enclosures alone.

`verify` searches B's collected polynomial (`expr.collect_polynomial`)
where that form is smaller, as it is for any one-hidden-layer `square`
network.  Its coefficients are rounded to nearest, so a `valid` verdict
for such a network certifies the collected polynomial, and a witness's
margin is computed on it.  `condition_exprs` and `check_point` keep B as
written.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .expr import Box, Const, Expr, Tape, checked_int, collect_polynomial, sub, substitute

__all__ = [
    "KBCSpec", "SafetySpec", "VerificationTask", "Verdict", "Constraint",
    "CONDITIONS", "condition_exprs", "check_point", "verify",
]

# constraint kinds: "le0" requires expr <= 0, "gt0" requires expr > 0
Constraint = tuple[Expr, str]

# evaluation batch size: bounds peak register memory at wide search fronts
_EVAL_CHUNK = 32_768


@dataclass(frozen=True)
class KBCSpec:
    """Induction horizon k and per-step slack epsilon; lam = (k-1) * epsilon."""

    k: int
    epsilon: float
    lam: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k", checked_int("k", self.k, 1))
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be >= 0 and finite")
        object.__setattr__(self, "lam", (self.k - 1) * self.epsilon)


@dataclass(frozen=True)
class SafetySpec:
    """State space X with initial region X_I and unsafe region X_U inside it."""

    X: Box
    X_I: Box
    X_U: Box

    def __post_init__(self):
        if not self.X.contains_box(self.X_I):
            raise ValueError("initial region must lie inside the state space")
        if not self.X.contains_box(self.X_U):
            raise ValueError("unsafe region must lie inside the state space")
        if self.X_I.intersects(self.X_U):
            raise ValueError("initial and unsafe regions must be disjoint")

    @property
    def n(self) -> int:
        return self.X.n


# The negated certificate conditions, in search order: each tag's region (a
# SafetySpec field) and constraints.  A constraint (site, minus, offset, kind)
# is B(site) - B(minus) - offset, tested by `kind`: a site is "x", "f1" or
# "fk", for B at x, f1(x) or fk(x); `minus` is an optional second site and
# `offset` names an optional KBCSpec constant.  The last constraint is the
# violation, any before it are its gates.
CONDITIONS = {
    "I": ("X_I", [("x", None, None, "gt0")]),          # B > 0
    "U": ("X_U", [("x", None, "lam", "le0")]),         # B <= lam
    "E1": ("X", [("x", None, "lam", "le0"),            # B <= lam and
                 ("f1", "x", "epsilon", "gt0")]),      #   B(f1) - B - eps > 0
    "E2": ("X", [("x", None, None, "le0"),             # B <= 0 and
                 ("fk", "x", None, "gt0")]),           #   B(fk) - B > 0
}


@dataclass(frozen=True)
class VerificationTask:
    """Certificate, symbolic dynamics and search parameters for one verification run."""

    B: Expr
    f1_sym: tuple[Expr, ...]
    fk_sym: tuple[Expr, ...]
    spec: SafetySpec
    kbc: KBCSpec
    delta: float = 0.001
    max_boxes: int = 5_000_000

    def __post_init__(self):
        object.__setattr__(self, "f1_sym", tuple(self.f1_sym))
        object.__setattr__(self, "fk_sym", tuple(self.fk_sym))
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be > 0 and finite")
        object.__setattr__(self, "max_boxes", checked_int("max_boxes", self.max_boxes, 1))
        n = self.spec.n
        if len(self.f1_sym) != n or len(self.fk_sym) != n:
            raise ValueError("symbolic dynamics dimension mismatch")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification run.

    kind is one of "valid", "counterexample", "delta_sat", "exhausted".
    `condition` names the violated / undecided condition for the latter
    three; `point` carries the confirmed witness, `box` the undecided box.
    For a counterexample, `margin` is the exact violation amount at the
    point; for delta-sat it is the worst possible violation the enclosure
    allows over the box.
    """

    kind: str
    condition: str | None = None
    point: tuple[float, ...] | None = None
    box: Box | None = None
    margin: float | None = None
    boxes_explored: int = 0
    wall_time: float = 0.0

    def to_json(self) -> str:
        payload: dict = {"verdict": self.kind, "boxes_explored": self.boxes_explored,
                         "wall_time": self.wall_time}
        if self.condition is not None:
            payload["condition"] = self.condition
        if self.point is not None:
            payload["point"] = list(self.point)
        if self.box is not None:
            payload["box"] = self.box.bounds()
        if self.margin is not None:
            payload["margin"] = self.margin
        return json.dumps(payload)


def condition_exprs(task: VerificationTask) -> list[tuple[str, list[Constraint], Box]]:
    """The four negated conditions of `CONDITIONS` as (tag, constraint set, search region)."""
    at = {"x": task.B, "f1": substitute(task.B, task.f1_sym),
          "fk": substitute(task.B, task.fk_sym)}

    def build(site, minus, offset, kind) -> Constraint:
        e = sub(at[site], at[minus]) if minus else at[site]
        value = getattr(task.kbc, offset) if offset else 0.0
        # a zero offset is left out: each Tape op adds to the centred form's allowance
        return (sub(e, Const(value)) if value else e), kind

    return [(tag, [build(*c) for c in constraints], getattr(task.spec, region))
            for tag, (region, constraints) in CONDITIONS.items()]


def check_point(task: VerificationTask, x: Sequence[float]) -> list[tuple[str, float]]:
    """Exact per-condition violation check at a single finite state of shape (n,).

    Returns (tag, margin) for every condition violated at x inside its
    region, the margin being the amount by which the violation (the last
    constraint) holds.  The gates are not applied: the increase in E1 and
    E2 is reported even when x lies outside the sub-level set the search
    gates on, so the diagnostic matches what an ungated conventional
    certificate check would flag.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (task.spec.n,):
        raise ValueError(f"point has shape {x.shape}; the task's states have shape "
                         f"({task.spec.n},)")
    if not np.isfinite(x).all():
        raise ValueError(f"point {x.tolist()} is not finite; no region contains it")
    violations: list[tuple[str, float]] = []
    for tag, constraints, region in condition_exprs(task):
        e, kind = constraints[-1]
        if region.contains(x):
            value = Tape([e]).eval_points(x[None, :])[0]
            if _holds([value], [kind])[0]:
                violations.append((tag, float(_margin(kind, value[0], value[0]))))
    return violations


def _margin(kind: str, lo, hi):
    """Upper bound of the violation amount over the enclosure [lo, hi] of a last
    constraint of kind `kind`; at a point, lo = hi = its value."""
    return -lo if kind == "le0" else hi


def _holds(values: Sequence[np.ndarray], kinds: Sequence[str]) -> np.ndarray:
    """Rows at which every constraint holds at a point; NaN never holds."""
    ok = np.ones(len(values[0]), dtype=bool)
    for v, kind in zip(values, kinds):
        ok &= (v <= 0.0) if kind == "le0" else (v > 0.0)
    return ok


def _may_hold(enclosures: Sequence[tuple[np.ndarray, np.ndarray]],
              kinds: Sequence[str]) -> np.ndarray:
    """Boxes that no constraint's enclosure proves infeasible; NaN keeps the box."""
    ok = np.ones(len(enclosures[0][0]), dtype=bool)
    for (lo, hi), kind in zip(enclosures, kinds):
        ok &= ~(lo > 0.0) if kind == "le0" else ~(hi <= 0.0)
    return ok


def _chunks(m: int):
    """Slices of at most _EVAL_CHUNK rows covering range(m)."""
    for start in range(0, m, _EVAL_CHUNK):
        yield slice(start, min(start + _EVAL_CHUNK, m))


def _search(tag: str, constraints: list[Constraint], region: Box, delta: float,
            budget: int) -> Verdict:
    """Breadth-first interval subdivision over one negated-condition set.

    The verdict is for this condition alone: "valid" means every box was
    discarded.  `boxes_explored` counts this search's boxes, each given to
    `eval_boxes` once.  Each level makes one `eval_boxes` call per chunk of
    its boxes, which gives the enclosures that decide which boxes it keeps
    and the midpoint values that confirm a witness among those.  A confirmed
    witness is re-checked alone by a one-row `eval_points` call.
    """
    kinds = [kind for _, kind in constraints]
    tape = Tape([e for e, _ in constraints])
    lo = region.lo()[None, :]
    hi = region.hi()[None, :]
    used = 0
    first_delta: Verdict | None = None

    while lo.shape[0]:
        used += lo.shape[0]
        if used > budget:
            return Verdict("exhausted", tag, boxes_explored=used)

        feasible = np.empty(lo.shape[0], dtype=bool)
        confirmed = np.empty(lo.shape[0], dtype=bool)
        margin_hi = np.empty(lo.shape[0])
        for sl in _chunks(lo.shape[0]):
            enclosures, centres = tape.eval_boxes(lo[sl], hi[sl])
            feasible[sl] = _may_hold(enclosures, kinds)
            confirmed[sl] = _holds(centres, kinds)
            margin_hi[sl] = _margin(kinds[-1], *enclosures[-1])
        lo, hi = lo[feasible], hi[feasible]
        confirmed, margin_hi = confirmed[feasible], margin_hi[feasible]
        if not lo.shape[0]:
            break

        mid = 0.5 * (lo + hi)
        if confirmed.any():
            point = mid[int(np.argmax(confirmed))]
            # re-evaluate the single point: vector and scalar libm paths may
            # disagree in the last bit, and a confirmed witness must re-verify
            single = tape.eval_points(point[None, :])
            if _holds(single, kinds)[0]:
                value = single[-1][0]
                return Verdict("counterexample", tag, point=tuple(float(v) for v in point),
                               margin=float(_margin(kinds[-1], value, value)),
                               boxes_explored=used)

        small = (hi - lo).max(axis=1) < delta
        if small.any() and first_delta is None:
            idx = int(np.argmax(small))
            # worst possible violation the enclosure allows over this box
            box = Box(lo[idx], hi[idx])
            first_delta = Verdict("delta_sat", tag, box=box, margin=float(margin_hi[idx]))
        keep = ~small
        lo, hi, mid = lo[keep], hi[keep], mid[keep]
        if not lo.shape[0]:
            break

        dim = np.argmax(hi - lo, axis=1)
        rows = np.arange(lo.shape[0])
        hi_left = hi.copy()
        hi_left[rows, dim] = mid[rows, dim]
        lo_right = lo.copy()
        lo_right[rows, dim] = mid[rows, dim]
        lo = np.vstack([lo, lo_right])
        hi = np.vstack([hi_left, hi])

    return replace(first_delta or Verdict("valid"), boxes_explored=used)


def verify(task: VerificationTask) -> Verdict:
    """Run the negated-condition searches in table order and aggregate the verdict.

    A confirmed counterexample or an exceeded box budget returns at once.
    Otherwise the first delta-sat verdict, if any, is reported, and only a
    fully discarded search space yields `valid`.  The searches run on B's
    collected polynomial where `collect_polynomial` finds one, and on B as
    written otherwise.
    """
    t0 = time.perf_counter()
    total = 0
    first_delta: Verdict | None = None
    searched = replace(task, B=collect_polynomial(task.B))
    for tag, constraints, region in condition_exprs(searched):
        if total >= task.max_boxes:
            return Verdict("exhausted", boxes_explored=total, wall_time=time.perf_counter() - t0)
        result = _search(tag, constraints, region, task.delta, task.max_boxes - total)
        total += result.boxes_explored
        if result.kind in ("counterexample", "exhausted"):
            return replace(result, boxes_explored=total, wall_time=time.perf_counter() - t0)
        if result.kind == "delta_sat" and first_delta is None:
            first_delta = result
    return replace(first_delta or Verdict("valid"), boxes_explored=total,
                   wall_time=time.perf_counter() - t0)
