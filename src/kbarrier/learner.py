"""Training of one-hidden-layer certificate candidates on sampled evolutions.

The candidate has the form  B(x) = c + sum_j v_j * g_j(b_j + W_j . x)  with
per-node activation g_j in {square, sin, cos}.  It is trained full-batch
with Adam against a hinge loss with one term per condition of
`verifier.CONDITIONS`: the violation amount of its last constraint, plus a
margin eta, averaged over the samples in its region.  The gates are not
applied, since the sub-level sets they select are unknown until a candidate
exists.  Everything is deterministic given the seeds, which keeps
counterexample-guided runs replayable.

One training pass, `_evaluate`, computes the loss and its gradient: the
forward pass at all rows of the sites S, S+ and Sk (`_forward`, with no
derivatives), the hinge terms, dL/dB at each site with the signs the table
gives, and the backward pass.  `loss` and `gradient` both return its
result, and a training epoch is one call to `gradient`.  The sites keep
their own matmuls and reductions: stacking them changes the BLAS path and
with it the last bits.  Training stops at the first epoch with a loss of
exactly zero, which cannot change the parameters it returns (see `train`).

The backward pass runs only where a hinge is active: a term with a zero
hinge sum adds no coefficients, a site no term reaches is skipped, and with
a sin or cos unit g' and t = (coef * g') * v are formed only at the rows
with a nonzero coefficient, scattered into +0.0 rows (all-`square` networks
keep the dense 2 z, cheaper than a gather on their small arrays).  The row
sums and t.T @ states stay full length: compacting them regroups the sums.
What is skipped is signed zeros, which change no nonzero sum, every
accumulator starts at +0.0, which adding +-0.0 keeps, and a site's first
coefficients are 0.0 + d, the bits of np.zeros(m) + d, so with a finite
loss the bits are the dense pass's.  A ufunc `where=` mask in place of the
gather and scatter gave wrong values on column views under numpy 2.4.6.

`NetworkParams` owns the flat parameter layout: `flat` writes it, `with_flat`
reads it back and `_blocks` gives its views, the output bias c a 0-d one.
Adam's state, the gradient and the parameters being trained all live in
such vectors; `train` validates one `with_flat` view of its vector, once,
and its arrays then track every update.  Biases, and an all-`square`
network's output weights, are tiled to full (m, h) arrays once per epoch
(`_rows`), so no element-wise step broadcasts a row at a time.  Each of
these gives the same bits as the plain formulation; the tests compare
against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import DataDrivenModel
from .expr import Const, Expr, Var, checked_int, cos, lin_comb, power, sin
from .verifier import CONDITIONS, KBCSpec, SafetySpec

__all__ = [
    "ACTIVATIONS", "NetworkParams", "NetworkGradient", "DatasetTriple", "TrainConfig",
    "TrainingDiverged", "mixed_sin_cos", "init_params", "sample_dataset", "loss",
    "gradient", "train",
]

# each activation kind: its expression builder, and its elementwise function
# and derivative on numpy arrays
_ACTIVATION_RULES = {
    "square": (lambda z: power(z, 2), lambda z: z * z, lambda z: 2.0 * z),
    "sin": (sin, np.sin, np.cos),
    "cos": (cos, np.cos, lambda z: -np.sin(z)),
}
ACTIVATIONS = tuple(_ACTIVATION_RULES)

# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite during training."""


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
    out_bias: np.ndarray      # 0-d
    activations: tuple[str, ...]

    def __post_init__(self):
        for name in ("weights", "biases", "out_weights", "out_bias"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "activations", tuple(self.activations))
        h, _ = self.weights.shape
        if (self.biases.shape != (h,) or self.out_weights.shape != (h,)
                or self.out_bias.shape != ()):
            raise ValueError("parameter shapes are inconsistent")
        if len(self.activations) != h:
            raise ValueError("one activation tag per hidden node required")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        for arr in (self.weights, self.biases, self.out_weights, self.out_bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    def flat(self) -> np.ndarray:
        """The parameters as one new vector [W.ravel(), b, v, c]."""
        return np.concatenate([self.weights.ravel(), self.biases, self.out_weights,
                               self.out_bias.reshape(1)])

    def with_flat(self, theta: np.ndarray) -> NetworkParams:
        """Validated parameters of this shape and activations: views of all of a `flat` vector."""
        return NetworkParams(*_blocks(np.asarray(theta, dtype=float), self.width, self.n),
                             self.activations)

    def forward_batch(self, states: np.ndarray) -> np.ndarray:
        return _forward(self, np.asarray(states, dtype=float), self.biases)[2]

    def to_expr(self) -> Expr:
        """Export the candidate as a closed-form expression."""
        xs = [Var(i) for i in range(self.n)]
        acc: Expr = Const(self.out_bias)
        for j in range(self.width):
            v = float(self.out_weights[j])
            if v == 0.0:
                continue
            z = lin_comb(self.weights[j], xs, constant=float(self.biases[j]))
            acc = acc + Const(v) * _ACTIVATION_RULES[self.activations[j]][0](z)
        return acc


def _blocks(theta: np.ndarray, h: int, n: int):
    """Views W (h x n), b, v and c (0-d) of a vector in the `NetworkParams.flat` layout."""
    w_end, b_end = h * n, h * n + h
    if theta.shape != (b_end + h + 1,):
        raise ValueError(f"a flat {h}x{n} network has {b_end + h + 1} entries, got {theta.shape}")
    return theta[:w_end].reshape(h, n), theta[w_end:b_end], theta[b_end:-1], theta[-1:].reshape(())


def _activate(z: np.ndarray, activations: tuple[str, ...], derivative: bool = False) -> np.ndarray:
    """The activations of the columns of z, or with `derivative` their derivatives.

    A network of one kind takes one call over the whole of z, a mixed one a
    call per column: numpy runs sin and cos more slowly on a block of a few
    strided columns, where its inner loop is only as long as the block is
    wide.  Square, sin and cos give the same bits both ways.
    """
    kinds = set(activations)
    if len(kinds) == 1:
        return _ACTIVATION_RULES[kinds.pop()][1 + derivative](z)
    out = np.empty_like(z)
    for j, a in enumerate(activations):
        out[:, j] = _ACTIVATION_RULES[a][1 + derivative](z[:, j])
    return out


@functools.lru_cache(maxsize=8)
def _tile_index(m: int, h: int) -> np.ndarray:
    return np.tile(np.arange(h), (m, 1))


def _rows(x: np.ndarray, m: int) -> np.ndarray:
    """x repeated as each of m rows: the (m, h) array numpy would broadcast x to.

    Element-wise arithmetic with it gives the same bits as with x itself,
    and is faster than broadcasting x, which numpy does with one inner-loop
    call of length h per row.  An epoch builds each once and uses it at all
    three evaluation sites.
    """
    return x[_tile_index(m, x.shape[0])]


def _forward(params: NetworkParams, states: np.ndarray, bias: np.ndarray):
    """z, the activations g and B at states; `bias` is params.biases or its `_rows`."""
    z = states @ params.weights.T
    z += bias
    g = _activate(z, params.activations)
    return z, g, g @ params.out_weights + params.out_bias


def init_params(n: int, width: int, activations: Sequence[str], seed: int) -> NetworkParams:
    """Standard-normal initial parameters, deterministic per seed."""
    rng = np.random.default_rng(seed)
    # W, b, v and c, drawn in this order
    return NetworkParams(rng.normal(0.0, 1.0, (width, n)), rng.normal(0.0, 1.0, width),
                         rng.normal(0.0, 1.0, width), rng.normal(0.0, 1.0), tuple(activations))


@dataclass(frozen=True, eq=False)
class NetworkGradient:
    """Gradient of the training loss in the `NetworkParams.flat` layout,
    with the total loss and its four-term breakdown at the same parameters."""

    flat: np.ndarray
    loss: float
    breakdown: tuple[float, float, float, float]


@dataclass(frozen=True)
class TrainConfig:
    """Loss margins eta, one per condition in `CONDITIONS` order, epoch count
    and Adam learning rate."""

    eta: tuple[float, ...] = (0.0,) * len(CONDITIONS)
    epochs: int = 1000
    learning_rate: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "eta", tuple(self.eta))
        if len(self.eta) != len(CONDITIONS):
            raise ValueError(f"eta must have {len(CONDITIONS)} entries, one per condition")
        if not all(0 <= e < math.inf for e in self.eta):
            raise ValueError(f"eta entries must be >= 0 and finite, got {self.eta}")
        object.__setattr__(self, "epochs", checked_int("epochs", self.epochs, 0))
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be > 0 and finite")


@dataclass(frozen=True, eq=False)
class DatasetTriple:
    """Sampled states with their 1-step and k-step data-driven evolutions.

    `S_kplus` is built for the horizon `kbc.k`, and the loss reads its
    offsets from `kbc`.  `rows` maps each region of `CONDITIONS` other than X
    to the indices of the samples in it, derived from S and `spec` at
    construction (and so again by `dataclasses.replace`).
    """

    S: np.ndarray
    S_plus: np.ndarray
    S_kplus: np.ndarray
    spec: SafetySpec
    kbc: KBCSpec
    rows: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("S", "S_plus", "S_kplus"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.S.ndim != 2 or self.S.shape[1] != self.spec.n:
            raise ValueError(f"S has shape {self.S.shape}; the spec needs (m, {self.spec.n})")
        if self.S_plus.shape != self.S.shape or self.S_kplus.shape != self.S.shape:
            raise ValueError("evolution arrays must match the sample array")
        object.__setattr__(self, "rows", {
            region: np.flatnonzero(getattr(self.spec, region).contains(self.S))
            for region, _ in CONDITIONS.values() if region != "X"})

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
    S = np.vstack([spec.X.sample(rng, m), spec.X_I.sample(rng, quota),
                   spec.X_U.sample(rng, quota)])
    return DatasetTriple(S=S, S_plus=model.step_batch(S), S_kplus=model.k_step_batch(S, kbc.k),
                         spec=spec, kbc=kbc)


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


def _evaluate(params: NetworkParams, data: DatasetTriple, cfg: TrainConfig) -> NetworkGradient:
    """The training pass: loss, breakdown and gradient (hinge subgradient at 0 is 0).

    Each term's size normalises both its mean and its dL/dB coefficients."""
    if not all(rows.size for rows in data.rows.values()):
        raise ValueError("region mask empty; increase quota sampling")
    m = data.size
    sites = {"x": data.S, "f1": data.S_plus, "fk": data.S_kplus}
    bias = _rows(params.biases, m)
    passes = {site: _forward(params, states, bias) for site, states in sites.items()}
    B = {site: b for site, (_, _, b) in passes.items()}
    terms = []
    for (region, constraints), eta in zip(CONDITIONS.values(), cfg.eta):
        site, minus, offset, kind = constraints[-1]
        value = B[site] - B[minus] if minus else B[site]
        if offset:          # subtracted even when 0.0, which is exact
            value = value - getattr(data.kbc, offset)
        rows = data.rows.get(region)
        if rows is not None:
            value = value[rows]
        a = (value if kind == "gt0" else -value) + eta
        terms.append(((site, minus, kind, rows), a, np.add.reduce(np.maximum(a, 0.0))))
    # a sum over the size, as ndarray.mean computes a 1-D mean
    breakdown = tuple(float(total / a.size) for _, a, total in terms)

    # dL/dB at each site; a site no active term reaches keeps the float 0.0.
    # In reverse the terms sum the E1 and E2 coefficients at x before they
    # add the I and U ones, an order the rounding depends on.
    coefs = dict.fromkeys(sites, 0.0)
    for (site, minus, kind, rows), a, total in reversed(terms):
        if not total:       # no active row
            continue
        # dL/d(violation amount): the bits of +-(a > 0) / a.size, faster
        d = (a > 0) * ((1.0 if kind == "gt0" else -1.0) / a.size)
        if rows is not None:
            d = np.bincount(rows, d, m)     # spread over all m rows
        coefs[site] = coefs[site] + d
        if minus:
            coefs[minus] = coefs[minus] - d

    h, n = params.weights.shape
    flat = np.zeros(h * n + 2 * h + 1)
    gw, gb, gv, gc = _blocks(flat, h, n)
    dense = set(params.activations) == {"square"}
    v = _rows(params.out_weights, m) if dense else params.out_weights
    # one accumulation per site, in this order: merging them changes the rounding
    for site, coef in coefs.items():
        if isinstance(coef, float):
            continue
        z, g, _ = passes[site]
        gv += g.T @ coef
        gc[()] += np.add.reduce(coef)
        if dense:
            t = (coef[:, None] * _activate(z, params.activations, True)) * v
        else:   # the same at the active rows, +0.0 at the others
            t = np.zeros_like(z)
            act = np.flatnonzero(coef)
            t[act] = (coef[act, None] * _activate(z[act], params.activations, True)) * v
        gb += _column_sums(t)
        gw += t.T @ sites[site]
    return NetworkGradient(flat=flat, loss=float(sum(breakdown)), breakdown=breakdown)


def loss(params: NetworkParams, data: DatasetTriple,
         cfg: TrainConfig) -> tuple[float, tuple[float, float, float, float]]:
    """Total hinge loss and its four-term breakdown."""
    g = _evaluate(params, data, cfg)
    return g.loss, g.breakdown


def gradient(params: NetworkParams, data: DatasetTriple, cfg: TrainConfig) -> NetworkGradient:
    """Analytic gradient of the total loss, with the loss and its breakdown."""
    return _evaluate(params, data, cfg)


def train(p0: NetworkParams, data: DatasetTriple, cfg: TrainConfig) -> NetworkParams:
    """Full-batch Adam; returns the parameters with the lowest observed loss.

    Adam runs on one flat vector theta = `p0.flat()`, with its first and
    second moments the same shape.  One `NetworkParams`, `p0.with_flat(theta)`,
    is built and validated before the first epoch.  Its W, b, v and c are
    `_blocks` views of all of theta and track its in-place updates, so each
    epoch is one vector update, and an improvement costs one copy.  Adam is
    element-wise, so this is the same arithmetic, in the same order, as
    updating the four parameter blocks one by one.

    Each epoch calls the module-level `gradient` exactly once, with that
    same `NetworkParams` (live views of theta) and `data`, and takes the
    loss from its result: one forward and one backward pass per epoch.
    Code that wraps `gradient`, such as a tracer counting epochs, relies on
    that.

    Only theta's start passes the finiteness check of the constructor, and
    no non-finite parameter can come back from a later update.  Under IEEE
    arithmetic, which numpy's matmul keeps by computing every product, a
    non-finite weight or bias makes the affine term and the activation
    non-finite at every state, and a non-finite activation, output weight or
    output bias makes B non-finite there.  At a sample in X_I (there is one,
    or the loss raises ValueError) the initial-region hinge is then +inf or
    NaN, unless B there is -inf, and then the one-step hinge B(S+) - B(S)
    is.  So the loss is non-finite, and TrainingDiverged is raised before
    such parameters can become the best ones.  The parameters returned
    still go through the validating constructor.  Floating-point warnings
    are silenced inside the loop, since TrainingDiverged reports them.

    Training stops at the first epoch whose loss is exactly 0.0.  This
    changes no result: the best parameters are replaced only on a strict
    improvement and the hinge loss is never negative, so no later epoch
    could replace them.  The one difference is that a non-finite loss
    those later epochs would have hit no longer raises TrainingDiverged.
    """
    if cfg.epochs == 0:
        return p0
    theta = p0.flat()
    params = p0.with_flat(theta)
    mom = np.zeros_like(theta)
    sec = np.zeros_like(theta)
    best_loss = math.inf
    best = theta.copy()
    beta1, beta2, lr, eps = _BETA1, _BETA2, cfg.learning_rate, _ADAM_EPSILON
    decay1, decay2 = 1.0 - beta1, 1.0 - beta2

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.epochs + 1):
            g = gradient(params, data, cfg)
            if not math.isfinite(g.loss):
                raise TrainingDiverged(f"non-finite loss at epoch {t - 1}")
            if g.loss < best_loss:
                best_loss = g.loss
                best = theta.copy()
            if g.loss == 0.0:
                return p0.with_flat(best)
            grad = g.flat
            mom = beta1 * mom + decay1 * grad
            sec = beta2 * sec + decay2 * grad * grad
            m_hat = mom / (1.0 - beta1 ** t)
            v_hat = sec / (1.0 - beta2 ** t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        total, _ = loss(params, data, cfg)
    if not math.isfinite(total):
        raise TrainingDiverged(f"non-finite loss at epoch {cfg.epochs}")
    if total < best_loss:
        best = theta
    return p0.with_flat(best)
