"""Interval branch-and-bound verification of candidate certificates.

A candidate B is checked against the four certificate conditions over the
full state box by searching each *negated* condition for a satisfying
point:

    I :  x in X_I  and  B(x) > 0
    U :  x in X_U  and  B(x) <= lam                      (lam = (k-1)*eps)
    E1:  x in X,  B(x) <= lam  and  B(f1(x)) - B(x) - eps > 0
    E2:  x in X,  B(x) <= 0    and  B(fk(x)) - B(x) > 0

Each search subdivides its region box breadth-first, splitting along the
widest dimension.  A box is discarded once any constraint's interval
enclosure proves it infeasible; a box whose midpoint satisfies every
constraint under exact point evaluation is a concrete counterexample; a box
narrower than delta that can be neither discarded nor confirmed is reported
as delta-sat.  `Valid` is returned only when all four searches discard
everything.  Exploration is deterministic, so verdicts are reproducible.

Each search returns a `Verdict` for its own condition, "valid" meaning
every box was discarded.  `verify` adds up their box counts, returns the
first counterexample or exhaustion as it stands, and otherwise the first
delta-sat verdict, or `valid` when there is none.  Two predicates decide
whether a constraint set can hold: `_may_hold` on interval enclosures,
where NaN keeps a box, and `_holds` at points, where NaN never holds.
`check_point` is built from the same constraint sets and `_holds`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .expr import Box, Const, Expr, Tape, neg, sub, substitute
from .learner import KBCSpec, SafetySpec

__all__ = [
    "VerificationTask", "Verdict", "Constraint",
    "condition_exprs", "check_point", "verify",
    "CONDITION_TAGS",
]

CONDITION_TAGS = ("I", "U", "E1", "E2")

# constraint kinds: "le0" requires expr <= 0, "gt0" requires expr > 0
Constraint = tuple[Expr, str]

_PRUNED_SINK_CAP = 50_000
# evaluation batch size: bounds peak register memory at wide search fronts
_EVAL_CHUNK = 32_768


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
        if not self.max_boxes >= 1:
            raise ValueError("max_boxes must be >= 1")
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

    @property
    def is_valid(self) -> bool:
        return self.kind == "valid"

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
    """The four negated conditions as (tag, constraint set, search region)."""
    B = task.B
    lam = task.kbc.lam
    eps = task.kbc.epsilon
    B_f1 = substitute(B, task.f1_sym)
    B_fk = substitute(B, task.fk_sym)
    gate_lam: Constraint = (sub(B, Const(lam)) if lam != 0.0 else B, "le0")
    return [
        ("I", [(B, "gt0")], task.spec.X_I),
        ("U", [gate_lam], task.spec.X_U),
        ("E1", [gate_lam, (sub(sub(B_f1, B), Const(eps)) if eps != 0.0 else sub(B_f1, B), "gt0")],
         task.spec.X),
        ("E2", [(B, "le0"), (sub(B_fk, B), "gt0")], task.spec.X),
    ]


def check_point(task: VerificationTask, x: Sequence[float]) -> list[tuple[str, float]]:
    """Exact per-condition violation check at a single state.

    Returns (tag, margin) for every condition violated at x, the margin
    being the amount by which the violating inequality holds.  The level
    conditions I and U apply only inside their regions; the evolution
    conditions are evaluated unconditionally, i.e. the increase itself is
    reported even when x lies outside the sub-level set the search gates
    on, so the diagnostic matches what an ungated conventional certificate
    check would flag.
    """
    x = np.asarray(x, dtype=float)[None, :]
    violations: list[tuple[str, float]] = []
    for tag, constraints, region in condition_exprs(task):
        if tag in ("E1", "E2"):
            constraints = constraints[-1:]      # the increase alone, ungated
        elif not region.contains(x[0]):
            continue
        tape = Tape([e for e, _ in constraints] + [_margin_expr(tag, constraints)])
        values = tape.eval_points(x)
        if _holds(values[:-1], [kind for _, kind in constraints])[0]:
            violations.append((tag, float(values[-1][0])))
    return violations


def _margin_expr(tag: str, constraints: list[Constraint]) -> Expr:
    """Violation-amount expression, sharing subtrees with the constraints."""
    if tag == "I":
        return constraints[0][0]          # B itself
    if tag == "U":
        return neg(constraints[0][0])     # lam - B
    return constraints[-1][0]             # the evolution increase


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
            budget: int, pruned_sink: list | None) -> Verdict:
    """Breadth-first interval subdivision over one negated-condition set.

    The verdict is for this condition alone: "valid" means every box was
    discarded.  `boxes_explored` counts this search's boxes.
    """
    kinds = [kind for _, kind in constraints]
    tape = Tape([e for e, _ in constraints] + [_margin_expr(tag, constraints)])
    lo = region.lo()[None, :].astype(float)
    hi = region.hi()[None, :].astype(float)
    used = 0
    first_delta: Verdict | None = None

    while lo.shape[0]:
        used += lo.shape[0]
        if used > budget:
            return Verdict("exhausted", tag, boxes_explored=used)

        feasible = np.empty(lo.shape[0], dtype=bool)
        margin_hi = np.empty(lo.shape[0])
        for sl in _chunks(lo.shape[0]):
            enclosures = tape.eval_boxes(lo[sl], hi[sl])
            feasible[sl] = _may_hold(enclosures[:-1], kinds)
            margin_hi[sl] = enclosures[-1][1]
        if pruned_sink is not None and not feasible.all():
            drop = ~feasible
            if len(pruned_sink) < _PRUNED_SINK_CAP:
                pruned_sink.extend((tag, bl, bh) for bl, bh in zip(lo[drop], hi[drop]))
        lo, hi = lo[feasible], hi[feasible]
        margin_hi = margin_hi[feasible]
        if not lo.shape[0]:
            break

        mid = 0.5 * (lo + hi)
        confirmed = np.empty(mid.shape[0], dtype=bool)
        for sl in _chunks(mid.shape[0]):
            confirmed[sl] = _holds(tape.eval_points(mid[sl])[:-1], kinds)
        if confirmed.any():
            point = mid[int(np.argmax(confirmed))]
            # re-evaluate the single point: vector and scalar libm paths may
            # disagree in the last bit, and a confirmed witness must re-verify
            single = tape.eval_points(point[None, :])
            if _holds(single[:-1], kinds)[0]:
                return Verdict("counterexample", tag, point=tuple(float(v) for v in point),
                               margin=float(single[-1][0]), boxes_explored=used)

        small = (hi - lo).max(axis=1) < delta
        if small.any() and first_delta is None:
            idx = int(np.argmax(small))
            # worst possible violation the enclosure allows over this box
            box = Box.from_bounds(list(zip(lo[idx], hi[idx])))
            first_delta = Verdict("delta_sat", tag, box=box, margin=float(margin_hi[idx]))
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

    return replace(first_delta or Verdict("valid"), boxes_explored=used)


def verify(task: VerificationTask, pruned_sink: list | None = None) -> Verdict:
    """Run all four negated-condition searches and aggregate the verdict.

    A confirmed counterexample returns immediately (searches run in the
    fixed order I, U, E1, E2).  Otherwise the first delta-sat box found, if
    any, is reported; exceeding the box budget reports exhaustion; and only
    a fully discarded search space yields `valid`.

    `pruned_sink`, when given, collects (condition tag, lo, hi) triples of
    discarded boxes for soundness auditing.
    """
    t0 = time.perf_counter()
    total = 0
    first_delta: Verdict | None = None
    for tag, constraints, region in condition_exprs(task):
        if total >= task.max_boxes:
            return Verdict("exhausted", boxes_explored=total, wall_time=time.perf_counter() - t0)
        result = _search(tag, constraints, region, task.delta, task.max_boxes - total,
                         pruned_sink)
        total += result.boxes_explored
        if result.kind in ("counterexample", "exhausted"):
            return replace(result, boxes_explored=total, wall_time=time.perf_counter() - t0)
        if result.kind == "delta_sat" and first_delta is None:
            first_delta = result
    return replace(first_delta or Verdict("valid"), boxes_explored=total,
                   wall_time=time.perf_counter() - t0)
