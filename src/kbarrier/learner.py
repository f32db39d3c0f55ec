"""Training of one-hidden-layer certificate candidates on sampled evolutions.

The candidate has the form  B(x) = c + sum_j v_j * g_j(b_j + W_j . x)  with
per-node activation g_j in {square, sin, cos}.  It is trained full-batch
with Adam against a four-term hinge loss: initial-region level, unsafe-region
level, one-step increase bounded by epsilon, and net decrease after k steps.
The level terms average over the samples inside the respective regions; the
two evolution terms average over the whole sample set, because the sub-level
sets they would ideally be restricted to are not known until a candidate
exists.  Everything is deterministic given the seeds, which keeps
counterexample-guided runs replayable.

The network is evaluated along one path, `_forward`: one matmul per batch
of states, then the activations, with their derivatives alongside when a
gradient needs them.  `forward_batch`, `loss` and `gradient` all go through
it, and `gradient` returns the loss it computed on the way.  A training
epoch is therefore one call to `gradient`: one forward pass per evaluation
site (S, S+, Sk) and one backward pass.  The three sites keep their own
matmuls and reductions, because stacking them into one array changes the
BLAS path and with it the last bits of the result.  Training stops at the
first epoch with a loss of exactly zero, which cannot change the parameters
it returns (see `train`).

An epoch costs little beyond its arithmetic.  Adam keeps its state in one
flat vector [W.ravel(), b, v, c], of which the per-epoch parameters are
views, wrapped without re-validation (`train` argues why that is safe).
`DatasetTriple` holds the row indices of its region masks.  Biases and
output weights are tiled to full (m, h) arrays once per epoch (`_rows`),
so no element-wise step broadcasts a row at a time.  Every one of these
gives the same bits as the plain formulation; the tests compare against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dynamics import DataDrivenModel
from .expr import Box, Const, Expr, cos, lin_comb, power, sin

__all__ = [
    "ACTIVATIONS", "NetworkParams", "NetworkGradient", "KBCSpec", "SafetySpec",
    "DatasetTriple", "TrainConfig", "TrainingDiverged",
    "mixed_sin_cos", "init_params", "sample_dataset", "loss", "gradient", "train",
]

ACTIVATIONS = ("square", "sin", "cos")

# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite during training."""


@dataclass(frozen=True)
class KBCSpec:
    """Induction horizon k and per-step slack epsilon; lam = (k-1) * epsilon."""

    k: int
    epsilon: float
    lam: float = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
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


def mixed_sin_cos(width: int) -> tuple[str, ...]:
    """Half sin, half cos activation layout (sin gets the extra node for odd widths)."""
    n_sin = (width + 1) // 2
    return ("sin",) * n_sin + ("cos",) * (width - n_sin)


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """One-hidden-layer candidate with per-node activations."""

    weights: np.ndarray       # h x n
    biases: np.ndarray        # h
    out_weights: np.ndarray   # h
    out_bias: float
    activations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "biases", np.asarray(self.biases, dtype=float))
        object.__setattr__(self, "out_weights", np.asarray(self.out_weights, dtype=float))
        object.__setattr__(self, "out_bias", float(self.out_bias))
        object.__setattr__(self, "activations", tuple(self.activations))
        h, _ = self.weights.shape
        if self.biases.shape != (h,) or self.out_weights.shape != (h,):
            raise ValueError("parameter shapes are inconsistent")
        if len(self.activations) != h:
            raise ValueError("one activation tag per hidden node required")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        for arr in (self.weights, self.biases, self.out_weights):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")
        if not math.isfinite(self.out_bias):
            raise ValueError("parameters must be finite")

    @classmethod
    def _trusted(cls, weights: np.ndarray, biases: np.ndarray, out_weights: np.ndarray,
                 out_bias: float, activations: tuple[str, ...]) -> NetworkParams:
        """Wrap arrays of the right shape and dtype without validating them.

        Only for `train`'s per-epoch parameters; see `train` for why a
        non-finite value there cannot escape.
        """
        params = object.__new__(cls)
        params.__dict__.update(weights=weights, biases=biases, out_weights=out_weights,
                               out_bias=out_bias, activations=activations)
        return params

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: Sequence[float]) -> float:
        """Candidate value at a single state."""
        return float(self.forward_batch(np.asarray(x, dtype=float)[None, :])[0])

    def forward_batch(self, states: np.ndarray) -> np.ndarray:
        return _forward(self, np.asarray(states, dtype=float), self.biases)[2]

    def to_expr(self) -> Expr:
        """Export the candidate as a closed-form expression."""
        from .expr import Var

        xs = [Var(i) for i in range(self.n)]
        acc: Expr = Const(self.out_bias)
        for j in range(self.width):
            v = float(self.out_weights[j])
            if v == 0.0:
                continue
            z = lin_comb(self.weights[j], xs, constant=float(self.biases[j]))
            g = _ACT_EXPR[self.activations[j]](z)
            acc = acc + Const(v) * g
        return acc


_ACT_EXPR = {
    "square": lambda z: power(z, 2),
    "sin": sin,
    "cos": cos,
}


# elementwise activation and its derivative, per kind
_ACT_NUMPY = {
    "square": (lambda z: z * z, lambda z: 2.0 * z),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda z: -np.sin(z)),
}


def _activate(z: np.ndarray, activations: tuple[str, ...],
              with_grad: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Activations of the columns of z and, with_grad, their derivatives (else None).

    A network of one kind takes one call per function over the whole of z.
    A mixed one goes a column at a time: sin and cos cost the same per
    element either way, and numpy runs them more slowly on a block of a few
    strided columns, where its inner loop is only as long as the block is
    wide.  Square, sin and cos give the same bits both ways.
    """
    kinds = set(activations)
    if len(kinds) == 1:
        f, df = _ACT_NUMPY[kinds.pop()]
        return f(z), (df(z) if with_grad else None)
    g = np.empty_like(z)
    gp = np.empty_like(z) if with_grad else None
    for j, a in enumerate(activations):
        f, df = _ACT_NUMPY[a]
        col = z[:, j]
        g[:, j] = f(col)
        if with_grad:
            gp[:, j] = df(col)
    return g, gp


@functools.lru_cache(maxsize=8)
def _tile_index(m: int, h: int) -> np.ndarray:
    return np.tile(np.arange(h), (m, 1))


def _rows(x: np.ndarray, m: int) -> np.ndarray:
    """x repeated as each of m rows: the (m, h) array numpy would broadcast x to.

    Element-wise arithmetic with it gives the same bits as with x itself,
    and is faster than broadcasting x, which numpy does with one inner-loop
    call of length h per row.  An epoch builds it once for the biases and
    once for the output weights, and uses each at all three evaluation
    sites.
    """
    return x[_tile_index(m, x.shape[0])]


def _forward(params: NetworkParams, states: np.ndarray, bias: np.ndarray,
             with_grad: bool = False):
    """Activations, their derivatives (or None) and B at a batch of states.

    `bias` is params.biases, or `_rows` of it for len(states) rows.
    """
    z = states @ params.weights.T
    z += bias
    g, gp = _activate(z, params.activations, with_grad)
    return g, gp, g @ params.out_weights + params.out_bias


def init_params(n: int, width: int, activations: Sequence[str], seed: int) -> NetworkParams:
    """Standard-normal initial parameters, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return NetworkParams(
        weights=rng.normal(0.0, 1.0, (width, n)),
        biases=rng.normal(0.0, 1.0, width),
        out_weights=rng.normal(0.0, 1.0, width),
        out_bias=float(rng.normal(0.0, 1.0)),
        activations=tuple(activations),
    )


@dataclass(frozen=True, eq=False)
class NetworkGradient:
    """Gradient of the training loss with the same layout as NetworkParams.

    `loss` is the total loss at the same parameters, computed on the way.
    `flat` holds the same numbers as one vector
    [weights.ravel(), biases, out_weights, out_bias]; the three arrays are
    views of it.
    """

    weights: np.ndarray
    biases: np.ndarray
    out_weights: np.ndarray
    out_bias: float
    loss: float
    flat: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    """Loss margins eta1..eta4, epoch count and Adam learning rate."""

    eta1: float = 0.0
    eta2: float = 0.0
    eta3: float = 0.0
    eta4: float = 0.0
    epochs: int = 1000
    learning_rate: float = 0.1

    def __post_init__(self):
        for name in ("eta1", "eta2", "eta3", "eta4"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be > 0 and finite")


@dataclass(frozen=True, eq=False)
class DatasetTriple:
    """Sampled states with their 1-step and k-step data-driven evolutions.

    The region masks of S in X_I and X_U, and their row indices `idx_init`
    and `idx_unsafe`, are derived from S and `spec` at construction (and so
    again by `dataclasses.replace`).
    """

    S: np.ndarray
    S_plus: np.ndarray
    S_kplus: np.ndarray
    spec: SafetySpec
    mask_init: np.ndarray = field(init=False, repr=False)
    mask_unsafe: np.ndarray = field(init=False, repr=False)
    idx_init: np.ndarray = field(init=False, repr=False)
    idx_unsafe: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("S", "S_plus", "S_kplus"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.S_plus.shape != self.S.shape or self.S_kplus.shape != self.S.shape:
            raise ValueError("evolution arrays must match the sample array")
        for suffix, box in (("init", self.spec.X_I), ("unsafe", self.spec.X_U)):
            mask = np.all((self.S >= box.lo()) & (self.S <= box.hi()), axis=1)
            object.__setattr__(self, f"mask_{suffix}", mask)
            object.__setattr__(self, f"idx_{suffix}", np.flatnonzero(mask))

    @property
    def size(self) -> int:
        return self.S.shape[0]


def sample_dataset(spec: SafetySpec, model: DataDrivenModel, kbc: KBCSpec,
                   m: int, seed: int) -> DatasetTriple:
    """m uniform samples over X plus quota samples in each of X_I and X_U.

    Uniform sampling can starve a small region of representatives, which
    would silence the corresponding loss term, so at least max(50, m // 20)
    samples are drawn inside each region explicitly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    quota = max(50, m // 20)
    S = np.vstack([
        spec.X.sample(rng, m),
        spec.X_I.sample(rng, quota),
        spec.X_U.sample(rng, quota),
    ])
    S_plus = model.step_batch(S)
    S_kplus = model.k_step_batch(S, kbc.k)
    return DatasetTriple(S=S, S_plus=S_plus, S_kplus=S_kplus, spec=spec)


def _hinge_mean(arg: np.ndarray) -> float:
    """Mean of max(arg, 0): the sum over its size, as ndarray.mean computes it in 1-D."""
    h = np.maximum(arg, 0.0)
    return float(np.add.reduce(h) / h.size)


def _column_sums(t: np.ndarray) -> np.ndarray:
    """np.add.reduce(t, 0) of a C-ordered (m, h) array, bit for bit.

    For h > 1 numpy adds the rows in order, one inner-loop call of length h
    per row.  np.add.accumulate down the columns adds them in the same order
    with one call per column, which is faster while h is small.  A single
    column is summed pairwise, so it, and wider arrays, take the reduce.
    """
    if 1 < t.shape[1] <= 4:
        return np.add.accumulate(t, 0)[-1]
    return np.add.reduce(t, 0)


def _loss_pieces(params: NetworkParams, data: DatasetTriple, kbc: KBCSpec,
                 cfg: TrainConfig, with_grad: bool = False):
    """Loss breakdown, hinge arguments, and the `_forward` result at S, S+, Sk."""
    idx_i, idx_u = data.idx_init, data.idx_unsafe
    if not idx_i.size or not idx_u.size:
        raise ValueError("region mask empty; increase quota sampling")
    bias = _rows(params.biases, data.size)
    sites = [_forward(params, states, bias, with_grad)
             for states in (data.S, data.S_plus, data.S_kplus)]
    B_s, B_1, B_k = (site[2] for site in sites)
    args = (
        B_s[idx_i] + cfg.eta1,
        -B_s[idx_u] + kbc.lam + cfg.eta2,
        B_1 - B_s - kbc.epsilon + cfg.eta3,
        B_k - B_s + cfg.eta4,
    )
    return tuple(_hinge_mean(a) for a in args), args, sites


def loss(params: NetworkParams, data: DatasetTriple, kbc: KBCSpec,
         cfg: TrainConfig) -> tuple[float, tuple[float, float, float, float]]:
    """Total hinge loss and its four-term breakdown."""
    breakdown, _, _ = _loss_pieces(params, data, kbc, cfg)
    return float(sum(breakdown)), breakdown


def gradient(params: NetworkParams, data: DatasetTriple, kbc: KBCSpec,
             cfg: TrainConfig) -> NetworkGradient:
    """Analytic gradient of the total loss (hinge subgradient at 0 is 0), with the loss."""
    breakdown, (arg_i, arg_u, arg_1, arg_k), sites = _loss_pieces(
        params, data, kbc, cfg, with_grad=True)
    m = data.size
    idx_i, idx_u = data.idx_init, data.idx_unsafe

    # dL/dB at each evaluation site
    coef_s = np.zeros(m)
    coef_s[idx_i] += (arg_i > 0) / idx_i.size
    coef_s[idx_u] -= (arg_u > 0) / idx_u.size
    act_1 = (arg_1 > 0) / m
    act_k = (arg_k > 0) / m
    coef_s -= act_1 + act_k

    h, n = params.weights.shape
    flat = np.zeros(h * n + 2 * h + 1)
    gw = flat[:h * n].reshape(h, n)
    gb = flat[h * n:h * n + h]
    gv = flat[h * n + h:-1]
    gc = 0.0
    v = _rows(params.out_weights, m)
    # one accumulation per site, in this order: merging them changes the rounding
    for states, coef, (g, gp, _) in zip((data.S, data.S_plus, data.S_kplus),
                                        (coef_s, act_1, act_k), sites):
        gv += g.T @ coef
        gc += float(np.add.reduce(coef))
        t = (coef[:, None] * gp) * v
        gb += _column_sums(t)
        gw += t.T @ states
    flat[-1] = gc
    return NetworkGradient(weights=gw, biases=gb, out_weights=gv, out_bias=gc,
                           loss=float(sum(breakdown)), flat=flat)


def train(p0: NetworkParams, data: DatasetTriple, kbc: KBCSpec,
          cfg: TrainConfig) -> NetworkParams:
    """Full-batch Adam; returns the parameters with the lowest observed loss.

    Adam runs on one flat vector theta = [W.ravel(), b, v, c], with its
    first and second moments the same shape.  W, b and v are views of
    theta, so each epoch is one vector update, and an improvement costs one
    copy.  Adam is element-wise, so this is the same arithmetic, in the same
    order, as updating the four parameter blocks one by one.

    Each epoch calls the module-level `gradient` exactly once, with the
    current `NetworkParams` and `data`, and takes the loss from its result:
    one forward and one backward pass per epoch.  Code that wraps
    `gradient`, such as a tracer counting epochs, relies on that.

    The per-epoch `NetworkParams` wrap theta's views without the finiteness
    check of the constructor, and no non-finite parameter can come back
    from that.  Under IEEE arithmetic, which numpy's matmul keeps by
    computing every product, a non-finite weight or bias makes the affine
    term, and with it the activation, non-finite at every state, and a
    non-finite activation, output weight or output bias makes B non-finite
    there.  At a sample in X_I (there is one, or the loss raises
    ValueError) the initial-region hinge is then +inf or NaN, unless B there
    is -inf, and then the one-step hinge B(S+) - B(S) is.  So the loss is
    non-finite and TrainingDiverged is raised before such parameters can
    become the best ones.  The parameters returned still go through the
    validating constructor.  Floating-point warnings are silenced inside
    the loop, since TrainingDiverged reports what they would.

    Training stops at the first epoch whose loss is exactly 0.0.  This
    changes no result: the best parameters are replaced only on a strict
    improvement and the hinge loss is never negative, so no later epoch
    could replace them.  The one difference is that a non-finite loss
    those later epochs would have hit no longer raises TrainingDiverged.
    """
    if cfg.epochs == 0:
        return p0
    h, n = p0.weights.shape
    w_end, b_end = h * n, h * n + h
    theta = np.concatenate([p0.weights.ravel(), p0.biases, p0.out_weights, [p0.out_bias]])
    W, b, v = theta[:w_end].reshape(h, n), theta[w_end:b_end], theta[b_end:-1]
    mom = np.zeros_like(theta)
    sec = np.zeros_like(theta)
    best_loss = math.inf
    best = theta.copy()
    beta1, beta2, lr, eps = _BETA1, _BETA2, cfg.learning_rate, _ADAM_EPSILON
    decay1, decay2 = 1.0 - beta1, 1.0 - beta2

    def current() -> NetworkParams:
        return NetworkParams._trusted(W, b, v, float(theta[-1]), p0.activations)

    def best_params() -> NetworkParams:
        return replace(p0, weights=best[:w_end].reshape(h, n), biases=best[w_end:b_end],
                       out_weights=best[b_end:-1], out_bias=best[-1])

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.epochs + 1):
            g = gradient(current(), data, kbc, cfg)
            if not math.isfinite(g.loss):
                raise TrainingDiverged(f"non-finite loss at epoch {t - 1}")
            if g.loss < best_loss:
                best_loss = g.loss
                best = theta.copy()
            if g.loss == 0.0:
                return best_params()
            grad = g.flat
            mom = beta1 * mom + decay1 * grad
            sec = beta2 * sec + decay2 * grad * grad
            m_hat = mom / (1.0 - beta1 ** t)
            v_hat = sec / (1.0 - beta2 ** t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        total, _ = loss(current(), data, kbc, cfg)
    if not math.isfinite(total):
        raise TrainingDiverged(f"non-finite loss at epoch {cfg.epochs}")
    if total < best_loss:
        best = theta
    return best_params()
