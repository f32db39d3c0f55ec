"""Expression maps, trajectory data matrices and the data-driven closed loop.

A single persistently-exciting state trajectory is enough to reproduce the
dynamics exactly when the dictionary spans the true nonlinearities: with
data matrices X0, X1 and D0 (dictionary values along the trajectory) and a
right inverse Q of D0, the map  x+ = X1 @ Q @ dict(x)  agrees with the
unknown system everywhere, not just on the recorded samples.  Everything
downstream (training data, symbolic composition, verification) is built on
that reconstruction; the truth map is used only to record the trajectory.

A linear system x+ = A x is the same construction over the identity
dictionary x0..x{n-1}: X1 @ Q is then the recovered A, and the k-step map
is composed in closed form as A^k x.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expr import Expr, Tape, Var, lin_comb, max_var_index, substitute

__all__ = [
    "ExprMap", "TrajectoryData", "DataDrivenModel", "RankDeficientData",
    "collect_trajectory", "trajectory_from_states", "build_model",
    "states_to_csv", "trajectory_to_csv", "trajectory_from_csv",
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

    def eval(self, x: Sequence[float]) -> np.ndarray:
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def eval_batch(self, states: np.ndarray) -> np.ndarray:
        """Values for each row of `states`, shape (m, size)."""
        cols = self._tape.eval_points(np.asarray(states, dtype=float))
        return np.column_stack(cols)


@dataclass(frozen=True, eq=False)
class TrajectoryData:
    """The three data matrices recorded from one rollout."""

    X0: np.ndarray  # n x T
    X1: np.ndarray  # n x T
    D0: np.ndarray  # N x T

    def __post_init__(self):
        object.__setattr__(self, "X0", np.asarray(self.X0, dtype=float))
        object.__setattr__(self, "X1", np.asarray(self.X1, dtype=float))
        object.__setattr__(self, "D0", np.asarray(self.D0, dtype=float))
        if self.X0.shape != self.X1.shape:
            raise ValueError("inconsistent data matrix shapes")
        if self.D0.shape[1] != self.T:
            raise ValueError("dictionary data must have one column per sample")

    @property
    def n(self) -> int:
        return self.X0.shape[0]

    @property
    def T(self) -> int:
        return self.X0.shape[1]


def trajectory_from_states(states: Sequence[Sequence[float]],
                           dictionary: ExprMap) -> TrajectoryData:
    """Data matrices from a recorded state sequence x(0)..x(T), one state per row."""
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
    return TrajectoryData(X0=states[:T].T, X1=states[1:].T,
                          D0=dictionary.eval_batch(states[:T]).T)


def collect_trajectory(truth: ExprMap, dictionary: ExprMap,
                       x0: Sequence[float], T: int) -> TrajectoryData:
    """Roll the truth map T steps from x0 and record X0, X1 and D0."""
    if truth.size != truth.n:
        raise ValueError("truth map needs one step expression per dimension")
    x = np.asarray(x0, dtype=float)
    if x.shape != (truth.n,):
        raise ValueError("initial state dimension mismatch")
    states = np.empty((max(T, 0) + 1, truth.n))
    states[0] = x
    for i in range(T):
        states[i + 1] = truth.eval(states[i])
    return trajectory_from_states(states, dictionary)


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
    """Closed-loop reconstruction  x+ = X1 @ Q @ dict(x)  from one trajectory."""

    Q: np.ndarray  # T x N
    X1: np.ndarray  # n x T
    dictionary: ExprMap
    sigma_min: float
    coeff: np.ndarray = field(init=False, repr=False, compare=False)  # n x N

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "X1", np.asarray(self.X1, dtype=float))
        object.__setattr__(self, "coeff", self.X1 @ self.Q)

    @property
    def n(self) -> int:
        return self.X1.shape[0]

    def step(self, x: Sequence[float]) -> np.ndarray:
        """One-step evolution under the data-driven closed loop."""
        return self.step_batch(np.asarray(x, dtype=float)[None, :])[0]

    def step_batch(self, states: np.ndarray) -> np.ndarray:
        return self.dictionary.eval_batch(states) @ self.coeff.T

    def k_step(self, x: Sequence[float], k: int) -> np.ndarray:
        """k-fold application of `step`."""
        return self.k_step_batch(np.asarray(x, dtype=float)[None, :], k)[0]

    def k_step_batch(self, states: np.ndarray, k: int) -> np.ndarray:
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


def build_model(trajectory: TrajectoryData, dictionary: ExprMap) -> DataDrivenModel:
    """Construct the data-driven model; fails loudly if D0 is rank deficient."""
    Q, sigma_min = _right_inverse(trajectory.D0)
    return DataDrivenModel(Q=Q, X1=trajectory.X1, dictionary=dictionary, sigma_min=sigma_min)


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


def trajectory_to_csv(trajectory: TrajectoryData, path) -> None:
    """Write the recorded states x(0)..x(T) as CSV."""
    states_to_csv(np.column_stack([trajectory.X0, trajectory.X1[:, -1:]]).T, path)


def trajectory_from_csv(path, dictionary: ExprMap) -> TrajectoryData:
    """Rebuild the data matrices from an externally recorded state sequence."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if rows and not _is_numeric_row(rows[0]):
        rows = rows[1:]
    return trajectory_from_states([[float(v) for v in row] for row in rows], dictionary)


def _is_numeric_row(row: list[str]) -> bool:
    try:
        [float(v) for v in row]
        return True
    except ValueError:
        return False
