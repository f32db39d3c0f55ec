"""Expression maps, recorded trajectories and the data-driven closed loop.

A single persistently-exciting state trajectory is enough to reproduce the
dynamics exactly when the dictionary spans the true nonlinearities: with
data matrices X0, X1 (the states x(0)..x(T-1) and x(1)..x(T) as columns),
D0 (the dictionary along X0) and a right inverse Q of D0, the map
x+ = X1 @ Q @ dict(x)  agrees with the unknown system everywhere, not just
on the recorded samples.  Everything downstream (training data, symbolic
composition, verification) is built on that reconstruction; the truth map is
used only to record the trajectory.

A trajectory is its (T+1) x n array of states.  `build_model` forms X0, X1
and D0 from it and the dictionary it is given, so the dictionary that lifts
the data is always the one the model evaluates.

A linear system x+ = A x is the same construction over the identity
dictionary x0..x{n-1}: X1 @ Q is then the recovered A, and the k-step map
is composed in closed form as A^k x.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import Expr, Tape, Var, lin_comb, max_var_index, substitute

__all__ = [
    "ExprMap", "DataDrivenModel", "RankDeficientData",
    "rollout", "collect_trajectory", "build_model",
    "states_to_csv", "trajectory_from_csv",
]

# relative sigma_min/sigma_max below this is treated as genuine rank deficiency
_RANK_RTOL = 1e-9
# construction contract on the right-inverse residual
_RESIDUAL_TOL = 1e-8


class RankDeficientData(ValueError):
    """Raised when the recorded data does not excite all dictionary directions."""


@dataclass(frozen=True, eq=False)
class ExprMap:
    """Ordered vector of expressions over an n-dimensional state, compiled once.

    Serves both as a truth transition map (one expression per dimension)
    and as a dictionary of candidate terms (any positive number of them).
    """

    exprs: tuple[Expr, ...]
    n: int
    _tape: Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "exprs", tuple(self.exprs))
        if not self.exprs:
            raise ValueError("expression map needs at least one expression")
        for e in self.exprs:
            if max_var_index(e) >= self.n:
                raise ValueError("expression uses a variable beyond the state dimension")
        object.__setattr__(self, "_tape", Tape(self.exprs))

    @property
    def size(self) -> int:
        return len(self.exprs)

    def eval_batch(self, states: np.ndarray) -> np.ndarray:
        """Values for each row of `states`, shape (m, size)."""
        cols = self._tape.eval_points(np.asarray(states, dtype=float))
        return np.column_stack(cols)


def _checked_states(states: Sequence[Sequence[float]], dictionary: ExprMap) -> np.ndarray:
    """A recorded state sequence x(0)..x(T), one state per row, as a checked array."""
    if len({np.size(row) for row in states}) > 1:
        raise ValueError("states have differing numbers of components (ragged rows)")
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 2:
        raise ValueError("a trajectory needs at least two states")
    if states.shape[1] != dictionary.n:
        raise ValueError("state component count does not match the state dimension")
    bad = ~np.isfinite(states)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"state {row} has a non-finite component {col}: {states[row, col]}")
    T = states.shape[0] - 1
    if T < dictionary.size:
        raise ValueError(
            f"insufficient samples for rank condition: T={T} < N={dictionary.size}"
        )
    return states


def rollout(step_batch: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
            steps: int) -> np.ndarray:
    """States x(0)..x(steps) of  x+ = f(x), one per row.

    `step_batch` maps a batch of states, one per row, to their successors
    (`ExprMap.eval_batch` of a truth map, `DataDrivenModel.step_batch`); it
    is applied to one-row batches.  Stops at the first non-finite state, x0
    included, with a ValueError naming it, so an overflow never reaches the
    recorded states.
    """
    states = np.empty((max(steps, 0) + 1, len(x0)))
    states[0] = x0
    if not np.isfinite(states[0]).all():
        raise ValueError("rollout start: state 0 is not finite")
    with np.errstate(all="ignore"):
        for i in range(1, steps + 1):
            states[i] = step_batch(states[i - 1:i])[0]
            if not np.isfinite(states[i]).all():
                raise ValueError(f"rollout diverged: state {i} is not finite")
    return states


def collect_trajectory(truth: ExprMap, dictionary: ExprMap,
                       x0: Sequence[float], T: int) -> np.ndarray:
    """Roll the truth map T steps from x0 and record the states, checked for `dictionary`."""
    if truth.size != truth.n:
        raise ValueError("truth map needs one step expression per dimension")
    x = np.asarray(x0, dtype=float)
    if x.shape != (truth.n,):
        raise ValueError("initial state dimension mismatch")
    return _checked_states(rollout(truth.eval_batch, x, T), dictionary)


def _right_inverse(data: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm right inverse via SVD, with a relative rank check.

    The SVD route keeps the residual near machine precision even when the
    data matrix is poorly conditioned; forming data @ data.T squares the
    condition number and loses the 1e-8 contract on realistic dictionaries.
    """
    sv = np.linalg.svd(data, compute_uv=False)
    sigma_min = float(sv[-1])
    if sigma_min <= _RANK_RTOL * float(sv[0]):
        raise RankDeficientData(
            f"persistency of excitation violated: sigma_min = {sigma_min:.3e}"
            " (dictionary data matrix is rank deficient)"
        )
    Q = np.linalg.pinv(data)
    residual = float(np.abs(data @ Q - np.eye(data.shape[0])).max())
    if residual > _RESIDUAL_TOL:
        raise RankDeficientData(
            f"right-inverse residual {residual:.3e} exceeds {_RESIDUAL_TOL:g}"
            f" (sigma_min = {sigma_min:.3e})"
        )
    return Q, sigma_min


@dataclass(frozen=True, eq=False)
class DataDrivenModel:
    """Closed-loop reconstruction  x+ = coeff @ dict(x),  coeff = X1 @ Q,  from one trajectory."""

    coeff: np.ndarray  # n x N
    dictionary: ExprMap
    sigma_min: float

    @property
    def n(self) -> int:
        return self.coeff.shape[0]

    def step_batch(self, states: np.ndarray) -> np.ndarray:
        """One step of the closed loop from each row of `states`."""
        return self.dictionary.eval_batch(states) @ self.coeff.T

    def k_step_batch(self, states: np.ndarray, k: int) -> np.ndarray:
        """k steps (k >= 1) of the closed loop from each row of `states`."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = np.asarray(states, dtype=float)
        for _ in range(k):
            out = self.step_batch(out)
        return out

    def symbolic_step(self) -> tuple[Expr, ...]:
        """The closed loop as expressions: component i = sum_j coeff[i, j] * term_j."""
        return tuple(lin_comb(self.coeff[i], self.dictionary.exprs) for i in range(self.n))

    def symbolic_k_step(self, k: int) -> tuple[Expr, ...]:
        """k-fold symbolic composition of the closed loop (shared subtrees).

        Over the identity dictionary the composition is the matrix power.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        terms = self.dictionary.exprs
        if len(terms) == self.n and all(
                isinstance(t, Var) and t.index == i for i, t in enumerate(terms)):
            # linear system: A^k x in closed form; substituting A x into
            # itself would widen interval enclosures by dependency
            Ak = np.linalg.matrix_power(self.coeff, k)
            return tuple(lin_comb(Ak[i], terms) for i in range(self.n))
        f1 = self.symbolic_step()
        fk = f1
        for _ in range(k - 1):
            fk = tuple(substitute(comp, fk) for comp in f1)
        return fk


def build_model(states: Sequence[Sequence[float]], dictionary: ExprMap) -> DataDrivenModel:
    """The data-driven model of the recorded states x(0)..x(T) over `dictionary`.

    D0 is the dictionary along x(0)..x(T-1); fails loudly if it is rank deficient.
    """
    states = _checked_states(states, dictionary)
    Q, sigma_min = _right_inverse(dictionary.eval_batch(states[:-1]).T)
    return DataDrivenModel(coeff=states[1:].T @ Q, dictionary=dictionary, sigma_min=sigma_min)


# ---------------------------------------------------------------------------
# CSV import/export: one row per time index, columns = state dimensions
# ---------------------------------------------------------------------------

def states_to_csv(states: Sequence[Sequence[float]], path) -> None:
    """Write a state sequence as CSV: header x1..xn, then one state per row in time order."""
    states = np.asarray(states, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(states.shape[1])])
        for row in states:
            writer.writerow([repr(float(v)) for v in row])


def trajectory_from_csv(path, dictionary: ExprMap) -> np.ndarray:
    """An externally recorded state sequence, checked as `build_model` checks it."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if rows and not _is_numeric_row(rows[0]):
        rows = rows[1:]
    return _checked_states([[float(v) for v in row] for row in rows], dictionary)


def _is_numeric_row(row: list[str]) -> bool:
    try:
        [float(v) for v in row]
        return True
    except ValueError:
        return False
