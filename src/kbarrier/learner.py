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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dynamics import DataDrivenModel
from .expr import Box, Const, Expr, cos, format_expr, lin_comb, power, sin

__all__ = [
    "ACTIVATIONS", "NetworkParams", "NetworkGradient", "KBCSpec", "SafetySpec",
    "DatasetTriple", "TrainConfig", "TrainingDiverged",
    "mixed_sin_cos", "init_params", "sample_dataset", "loss", "gradient", "train",
    "export_certificate",
]

ACTIVATIONS = ("square", "sin", "cos")


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
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
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
        return _forward(self, np.asarray(states, dtype=float))[2]

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

    One column at a time: the time goes into the element-wise sin and cos,
    and numpy runs those more slowly on a block of a few strided columns,
    where its inner loop is only as long as the block is wide.
    """
    g = np.empty_like(z)
    gp = np.empty_like(z) if with_grad else None
    for j, a in enumerate(activations):
        f, df = _ACT_NUMPY[a]
        col = z[:, j]
        g[:, j] = f(col)
        if with_grad:
            gp[:, j] = df(col)
    return g, gp


def _forward(params: NetworkParams, states: np.ndarray, with_grad: bool = False):
    """Activations, their derivatives (or None) and B at a batch of states."""
    z = states @ params.weights.T + params.biases
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
    """

    weights: np.ndarray
    biases: np.ndarray
    out_weights: np.ndarray
    out_bias: float
    loss: float


@dataclass(frozen=True)
class TrainConfig:
    """Loss margins eta1..eta4 plus optimiser settings."""

    eta1: float = 0.0
    eta2: float = 0.0
    eta3: float = 0.0
    eta4: float = 0.0
    epochs: int = 1000
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("eta1", "eta2", "eta3", "eta4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        # a bias correction 1 - beta**t of 0 divides by zero in the Adam step
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.adam_epsilon > 0:
            raise ValueError("adam_epsilon must be > 0")

    @property
    def etas(self) -> tuple[float, float, float, float]:
        return (self.eta1, self.eta2, self.eta3, self.eta4)


@dataclass(frozen=True, eq=False)
class DatasetTriple:
    """Sampled states with their 1-step and k-step data-driven evolutions."""

    S: np.ndarray
    S_plus: np.ndarray
    S_kplus: np.ndarray
    mask_init: np.ndarray
    mask_unsafe: np.ndarray
    spec: SafetySpec

    def __post_init__(self):
        for name in ("S", "S_plus", "S_kplus"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "mask_init", np.asarray(self.mask_init, dtype=bool))
        object.__setattr__(self, "mask_unsafe", np.asarray(self.mask_unsafe, dtype=bool))
        m = self.S.shape[0]
        if self.S_plus.shape != self.S.shape or self.S_kplus.shape != self.S.shape:
            raise ValueError("evolution arrays must match the sample array")
        if self.mask_init.shape != (m,) or self.mask_unsafe.shape != (m,):
            raise ValueError("masks must have one entry per sample")

    @property
    def size(self) -> int:
        return self.S.shape[0]


def _region_masks(states: np.ndarray, spec: SafetySpec) -> tuple[np.ndarray, np.ndarray]:
    def mask(box: Box) -> np.ndarray:
        lo, hi = box.lo(), box.hi()
        return np.all((states >= lo) & (states <= hi), axis=1)

    return mask(spec.X_I), mask(spec.X_U)


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
    mask_init, mask_unsafe = _region_masks(S, spec)
    return DatasetTriple(S=S, S_plus=S_plus, S_kplus=S_kplus,
                         mask_init=mask_init, mask_unsafe=mask_unsafe, spec=spec)


def _loss_pieces(params: NetworkParams, data: DatasetTriple, kbc: KBCSpec,
                 cfg: TrainConfig, with_grad: bool = False):
    """Loss breakdown, hinge arguments, and the `_forward` result at S, S+, Sk."""
    if not data.mask_init.any() or not data.mask_unsafe.any():
        raise ValueError("region mask empty; increase quota sampling")
    sites = [_forward(params, states, with_grad)
             for states in (data.S, data.S_plus, data.S_kplus)]
    B_s, B_1, B_k = (site[2] for site in sites)
    arg_i = B_s[data.mask_init] + cfg.eta1
    arg_u = -B_s[data.mask_unsafe] + kbc.lam + cfg.eta2
    arg_1 = B_1 - B_s - kbc.epsilon + cfg.eta3
    arg_k = B_k - B_s + cfg.eta4
    breakdown = (
        float(np.maximum(arg_i, 0.0).mean()),
        float(np.maximum(arg_u, 0.0).mean()),
        float(np.maximum(arg_1, 0.0).mean()),
        float(np.maximum(arg_k, 0.0).mean()),
    )
    return breakdown, (arg_i, arg_u, arg_1, arg_k), sites


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
    n_i = int(data.mask_init.sum())
    n_u = int(data.mask_unsafe.sum())

    # dL/dB at each evaluation site
    coef_s = np.zeros(m)
    coef_s[data.mask_init] += (arg_i > 0).astype(float) / n_i
    coef_s[data.mask_unsafe] -= (arg_u > 0).astype(float) / n_u
    act_1 = (arg_1 > 0).astype(float) / m
    act_k = (arg_k > 0).astype(float) / m
    coef_s -= act_1 + act_k

    gw = np.zeros_like(params.weights)
    gb = np.zeros_like(params.biases)
    gv = np.zeros_like(params.out_weights)
    gc = 0.0
    # one accumulation per site, in this order: merging them changes the rounding
    for states, coef, (g, gp, _) in zip((data.S, data.S_plus, data.S_kplus),
                                        (coef_s, act_1, act_k), sites):
        gv += g.T @ coef
        gc += float(coef.sum())
        t = (coef[:, None] * gp) * params.out_weights[None, :]
        gb += t.sum(axis=0)
        gw += t.T @ states
    return NetworkGradient(weights=gw, biases=gb, out_weights=gv, out_bias=gc,
                           loss=float(sum(breakdown)))


def train(p0: NetworkParams, data: DatasetTriple, kbc: KBCSpec,
          cfg: TrainConfig) -> NetworkParams:
    """Full-batch Adam; returns the parameters with the lowest observed loss.

    Each epoch calls the module-level `gradient` exactly once, with the
    current `NetworkParams` and `data`, and takes the loss from its result:
    one forward and one backward pass per epoch.  Code that wraps
    `gradient`, such as a tracer counting epochs, relies on that.

    Training stops at the first epoch whose loss is exactly 0.0.  This
    changes no result: the best parameters are replaced only on a strict
    improvement and the hinge loss is never negative, so no later epoch
    could replace them.  The one difference is that a non-finite loss
    those later epochs would have hit no longer raises TrainingDiverged.
    """
    if cfg.epochs == 0:
        return p0
    W = p0.weights.copy()
    b = p0.biases.copy()
    v = p0.out_weights.copy()
    c = p0.out_bias
    mom = [np.zeros_like(W), np.zeros_like(b), np.zeros_like(v), 0.0]
    sec = [np.zeros_like(W), np.zeros_like(b), np.zeros_like(v), 0.0]
    best_loss = math.inf
    best = (W.copy(), b.copy(), v.copy(), c)

    def current() -> NetworkParams:
        return replace(p0, weights=W, biases=b, out_weights=v, out_bias=c)

    def best_params() -> NetworkParams:
        return replace(p0, weights=best[0], biases=best[1], out_weights=best[2], out_bias=best[3])

    for t in range(1, cfg.epochs + 1):
        g = gradient(current(), data, kbc, cfg)
        if not math.isfinite(g.loss):
            raise TrainingDiverged(f"training diverged at epoch {t - 1}")
        if g.loss < best_loss:
            best_loss = g.loss
            best = (W.copy(), b.copy(), v.copy(), c)
        if g.loss == 0.0:
            return best_params()
        grads = (g.weights, g.biases, g.out_weights, g.out_bias)
        new = []
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for i, (param, grad) in enumerate(zip((W, b, v, c), grads)):
            mom[i] = cfg.beta1 * mom[i] + (1.0 - cfg.beta1) * grad
            sec[i] = cfg.beta2 * sec[i] + (1.0 - cfg.beta2) * grad * grad
            m_hat = mom[i] / bc1
            v_hat = sec[i] / bc2
            new.append(param - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon))
        W, b, v = new[0], new[1], new[2]
        c = float(new[3])

    total, _ = loss(current(), data, kbc, cfg)
    if not math.isfinite(total):
        raise TrainingDiverged(f"training diverged at epoch {cfg.epochs}")
    if total < best_loss:
        best = (W, b, v, c)
    return best_params()


def export_certificate(params: NetworkParams, kbc: KBCSpec, cfg: TrainConfig,
                       path_expr, path_meta, iterations: int = 0) -> None:
    """Write the candidate as expression text plus a JSON sidecar."""
    e = params.to_expr()
    with open(path_expr, "w") as fh:
        fh.write(format_expr(e) + "\n")
    meta = {
        "k": kbc.k,
        "epsilon": kbc.epsilon,
        "eta": list(cfg.etas),
        "seed": cfg.seed,
        "iterations": iterations,
        "width": params.width,
        "activations": list(params.activations),
    }
    with open(path_meta, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
