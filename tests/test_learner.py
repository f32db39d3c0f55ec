"""Forward pass, loss arithmetic, analytic gradients and training behaviour."""

import functools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import kbarrier.learner
from kbarrier import (
    Box, CegisConfig, DatasetTriple, KBCSpec, NetworkParams, SafetySpec, TrainConfig,
    TrainingDiverged, augment, eval_point, gradient, init_params, loss, mixed_sin_cos,
    sample_dataset, train,
)
from kbarrier.verifier import CONDITIONS, VerificationTask, condition_exprs
from kbarrier.learner import ACTIVATIONS, _activate
from kbarrier.expr import Const, Pow, Sin, Cos, Exp, Tape
from kbarrier.expr import _children  # structural walk for the export test

from conftest import make_reference_nonlinear


def constant_net(value: float, activations=("sin", "sin")) -> NetworkParams:
    h = len(activations)
    return NetworkParams(weights=np.zeros((h, 2)), biases=np.zeros(h),
                         out_weights=np.zeros(h), out_bias=value,
                         activations=activations)


class TestSpecs:
    def test_kbc_validation_and_threshold(self):
        assert KBCSpec(k=3, epsilon=0.1).lam == pytest.approx(0.2)
        assert KBCSpec(k=1, epsilon=0.7).lam == 0.0
        with pytest.raises(ValueError):
            KBCSpec(k=0, epsilon=0.1)
        with pytest.raises(ValueError):
            KBCSpec(k=2, epsilon=-0.1)

    @pytest.mark.parametrize("cls, field", [
        (KBCSpec, "k"), (TrainConfig, "epochs"), (CegisConfig, "max_iterations"),
        (CegisConfig, "cex_points"), (CegisConfig, "samples"), (CegisConfig, "seed"),
    ])
    def test_count_fields_must_be_integers(self, cls, field):
        # a float count would fail later, inside range(), or be used as given
        make = functools.partial(cls, epsilon=0.1) if cls is KBCSpec else cls
        for value in (2.5, 0.5, 3.0, "3"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
                make(**{field: value})
        value = getattr(make(**{field: np.int64(3)}), field)
        assert value == 3 and type(value) is int

    def test_safety_spec_containment(self):
        with pytest.raises(ValueError, match="inside the state space"):
            SafetySpec(X=Box.from_bounds([(-1, 1), (-1, 1)]),
                       X_I=Box.from_bounds([(-2, 0), (-1, 0)]),
                       X_U=Box.from_bounds([(0.5, 1), (0.5, 1)]))

    def test_safety_spec_disjointness(self):
        with pytest.raises(ValueError, match="disjoint"):
            SafetySpec(X=Box.from_bounds([(-1, 1), (-1, 1)]),
                       X_I=Box.from_bounds([(-0.5, 0.5), (-0.5, 0.5)]),
                       X_U=Box.from_bounds([(0.4, 0.8), (0.4, 0.8)]))

    def test_mixed_activation_layout(self):
        assert mixed_sin_cos(4) == ("sin", "sin", "cos", "cos")
        assert mixed_sin_cos(5) == ("sin", "sin", "sin", "cos", "cos")

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -0.1), ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        # the margins are one tuple; etaN in an id names its N-th entry
        pytest.param("eta", (-1e-300, 0.0, 0.0, 0.0), id="eta1--1e-300"),
        pytest.param("eta", (math.nan, 0.0, 0.0, 0.0), id="eta1-nan"),
        pytest.param("eta", (math.inf, 0.0, 0.0, 0.0), id="eta1-inf"),
        pytest.param("eta", (0.0, 0.0, 0.0, math.nan), id="eta4-nan"),
        pytest.param("eta", (0.0, 0.0, 0.0), id="eta-of-3"),
        pytest.param("eta", (0.0,) * 5, id="eta-of-5"),
    ])
    def test_train_settings_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_train_settings_boundaries_accepted(self):
        TrainConfig(learning_rate=5e-324, eta=(0.0, 0.0, 0.0, 1e300))

    @pytest.mark.parametrize("epsilon", [-1e-300, math.nan, math.inf])
    def test_epsilon_must_be_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            KBCSpec(k=2, epsilon=epsilon)
        assert KBCSpec(k=2, epsilon=0.0).lam == 0.0


def toy_spec() -> SafetySpec:
    return SafetySpec(
        X=Box.from_bounds([(-2, 2), (-2, 2)]),
        X_I=Box.from_bounds([(0.5, 1.5), (-2, -1)]),
        X_U=Box.from_bounds([(-0.5, 0.5), (0.6, 1.8)]),
    )


def manual_triple(spec: SafetySpec, rng: np.random.Generator, m: int = 40,
                  drift: float = 0.05, kbc: KBCSpec = KBCSpec(k=2, epsilon=0.1)) -> DatasetTriple:
    """Hand-built dataset with a synthetic shift standing in for the dynamics."""
    S = np.vstack([
        spec.X.sample(rng, m),
        spec.X_I.sample(rng, 5),
        spec.X_U.sample(rng, 5),
    ])
    S_plus = S + drift
    S_kplus = S + 2 * drift
    return DatasetTriple(S=S, S_plus=S_plus, S_kplus=S_kplus, spec=spec, kbc=kbc)


def region_masks(data):
    """Boolean masks of the samples in X_I and X_U, computed from the spec."""
    return data.spec.X_I.contains(data.S), data.spec.X_U.contains(data.S)


def reference_loss(params, data, cfg):
    """Straight-line re-evaluation of the four-term hinge loss."""
    kbc = data.kbc
    relu = lambda t: max(t, 0.0)
    in_init, in_unsafe = region_masks(data)
    li = lu = l1 = lk = 0.0
    n_i = n_u = 0
    for i in range(data.size):
        b = float(params.forward_batch(data.S[i:i + 1])[0])
        b1 = float(params.forward_batch(data.S_plus[i:i + 1])[0])
        bk = float(params.forward_batch(data.S_kplus[i:i + 1])[0])
        if in_init[i]:
            li += relu(b + cfg.eta[0])
            n_i += 1
        if in_unsafe[i]:
            lu += relu(-b + kbc.lam + cfg.eta[1])
            n_u += 1
        l1 += relu(b1 - b - kbc.epsilon + cfg.eta[2])
        lk += relu(bk - b + cfg.eta[3])
    return li / n_i + lu / n_u + l1 / data.size + lk / data.size


def reference_activate(z, activations):
    """The activations and their derivatives, evaluated one column at a time."""
    g = np.empty_like(z)
    gp = np.empty_like(z)
    for j, a in enumerate(activations):
        col = z[:, j]
        g[:, j] = col * col if a == "square" else (np.sin(col) if a == "sin" else np.cos(col))
        gp[:, j] = 2.0 * col if a == "square" else (np.cos(col) if a == "sin" else -np.sin(col))
    return g, gp


def reference_gradient(params, data, cfg):
    """Straight-line gradient and loss: a separate forward pass per site for
    the loss and again for the gradient, with the same operations in the
    same order as `gradient`, so the results must agree bit for bit."""
    kbc = data.kbc
    W, bias, v, c = params.weights, params.biases, params.out_weights, params.out_bias
    acts = params.activations
    B_s = reference_activate(data.S @ W.T + bias, acts)[0] @ v + c
    B_1 = reference_activate(data.S_plus @ W.T + bias, acts)[0] @ v + c
    B_k = reference_activate(data.S_kplus @ W.T + bias, acts)[0] @ v + c
    in_init, in_unsafe = region_masks(data)
    arg_i = B_s[in_init] + cfg.eta[0]
    arg_u = -B_s[in_unsafe] + kbc.lam + cfg.eta[1]
    arg_1 = B_1 - B_s - kbc.epsilon + cfg.eta[2]
    arg_k = B_k - B_s + cfg.eta[3]
    total = float(sum((
        float(np.maximum(arg_i, 0.0).mean()),
        float(np.maximum(arg_u, 0.0).mean()),
        float(np.maximum(arg_1, 0.0).mean()),
        float(np.maximum(arg_k, 0.0).mean()),
    )))

    m = data.size
    coef_s = np.zeros(m)
    coef_s[in_init] += (arg_i > 0).astype(float) / int(in_init.sum())
    coef_s[in_unsafe] -= (arg_u > 0).astype(float) / int(in_unsafe.sum())
    act_1 = (arg_1 > 0).astype(float) / m
    act_k = (arg_k > 0).astype(float) / m
    coef_s -= act_1 + act_k

    gw, gb, gv, gc = np.zeros_like(W), np.zeros_like(bias), np.zeros_like(v), 0.0
    for states, coef in ((data.S, coef_s), (data.S_plus, act_1), (data.S_kplus, act_k)):
        g, gp = reference_activate(states @ W.T + bias, acts)
        gv += g.T @ coef
        gc += float(coef.sum())
        t = (coef[:, None] * gp) * v[None, :]
        gb += t.sum(axis=0)
        gw += t.T @ states
    return gw, gb, gv, gc, total


def cube_spec(n: int) -> SafetySpec:
    return SafetySpec(X=Box.from_bounds([(-2, 2)] * n),
                      X_I=Box.from_bounds([(0.5, 1.5)] * n),
                      X_U=Box.from_bounds([(-1.5, -0.5)] * n))


def region_triple(spec: SafetySpec, rng: np.random.Generator, others: int,
                  kbc: KBCSpec) -> DatasetTriple:
    """Exactly one sample in each of X_I and X_U, plus `others` outside both."""
    S = spec.X.sample(rng, 4 * others + 8)
    in_i = np.all((S >= spec.X_I.lo()) & (S <= spec.X_I.hi()), axis=1)
    in_u = np.all((S >= spec.X_U.lo()) & (S <= spec.X_U.hi()), axis=1)
    S = np.vstack([S[~in_i & ~in_u][:others], spec.X_I.sample(rng, 1), spec.X_U.sample(rng, 1)])
    drift = rng.normal(0.0, 0.1, S.shape[1])
    return DatasetTriple(S=S, S_plus=S + drift, S_kplus=S + 3 * drift, spec=spec, kbc=kbc)


def bits(a) -> np.ndarray:
    """The int64 bit patterns of a float array, so -0.0 and +0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def sparse_case(acts, moved, active, seed):
    """A network and dataset on which only `moved` has active hinge rows.

    The data start from a `region_triple` with S+ = Sk = S under k = 1, so
    lambda is 0, and zero margins; the output weights and bias are set so
    that B < 0 at the X_I sample and B > 0 at the X_U sample.  Then no hinge
    is active and the loss is exactly 0.  `moved` "f1" or "fk" moves the
    evolution of the `active` lowest-B samples onto the highest-B sample,
    which activates exactly those rows of the E1 or E2 term; "I" raises the
    bias until the X_I sample alone is active.
    """
    rng = np.random.default_rng(seed)
    n = 2
    kbc = KBCSpec(k=1, epsilon=0.05)
    data = region_triple(cube_spec(n), rng, 40, kbc)
    data = replace(data, S_plus=data.S, S_kplus=data.S)
    net = init_params(n, len(acts), acts, seed=seed)
    r_i, r_u = net.forward_batch(data.S[-2:]) - net.out_bias
    sign = 1.0 if r_u > r_i else -1.0
    c = -sign * (r_i + r_u) / 2 + (sign * (r_u - r_i) / 2 + 1e-3 if moved == "I" else 0.0)
    net = replace(net, out_weights=sign * net.out_weights, out_bias=c)
    B = net.forward_batch(data.S)
    if moved in ("f1", "fk"):
        evolved = data.S.copy()
        evolved[np.argsort(B)[:active]] = data.S[np.argmax(B)]
        data = replace(data, **{"S_plus" if moved == "f1" else "S_kplus": evolved})
    return net, data


# one sin/cos mixture, one of each single kind and square in a mixture
SPARSE_ACTIVATIONS = [("sin", "cos", "sin"), ("sin",), ("cos", "cos"), ("square", "square"),
                      ("square", "cos")]


class TestForward:
    def test_constant_network(self):
        net = constant_net(-1.0)
        assert np.array_equal(net.forward_batch([[0.3, 0.7], [-2.0, 2.0]]), [-1.0, -1.0])

    def test_single_quadratic_node(self):
        net = NetworkParams(weights=np.array([[1.0, 0.0]]), biases=np.zeros(1),
                            out_weights=np.array([1.0]), out_bias=0.0,
                            activations=("square",))
        pts = np.array([[0.5, 3.0], [-1.2, 0.0]])
        assert net.forward_batch(pts) == pytest.approx(pts[:, 0] ** 2, rel=1e-12)

    def test_matches_symbolic_export(self):
        rng = np.random.default_rng(0)
        net = init_params(2, 5, ("square", "sin", "cos", "sin", "square"), seed=1)
        e = net.to_expr()
        pts = rng.uniform(-2, 2, size=(100, 2))
        assert net.forward_batch(pts) == pytest.approx([eval_point(e, x) for x in pts], abs=1e-10)


class TestFlatLayout:
    def test_blocks_in_order(self):
        net = init_params(3, 4, mixed_sin_cos(4), seed=2)
        theta = net.flat()
        assert theta.shape == (12 + 4 + 4 + 1,)
        assert np.array_equal(theta[:12], net.weights.ravel())
        assert np.array_equal(theta[12:16], net.biases)
        assert np.array_equal(theta[16:20], net.out_weights)
        assert theta[20] == net.out_bias

    def test_round_trip_gives_views(self):
        net = init_params(2, 3, ("square", "sin", "cos"), seed=5)
        theta = net.flat()
        back = net.with_flat(theta)
        assert_same_params(back, net)
        assert back.activations == net.activations
        assert all(a.base is theta for a in (back.weights, back.biases, back.out_weights))
        theta[0] += 1.0  # flat() is a new vector; with_flat reads through to it
        assert back.weights[0, 0] == theta[0] != net.weights[0, 0]

    @pytest.mark.parametrize("size", [0, 12, 14])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match="has 13 entries"):
            init_params(2, 3, ("sin",) * 3, seed=0).with_flat(np.zeros(size))

    @pytest.mark.parametrize("idx", [0, 7, 12])
    def test_non_finite_rejected(self, idx):
        net = init_params(2, 3, ("sin",) * 3, seed=0)
        theta = net.flat()
        theta[idx] = math.nan
        with pytest.raises(ValueError, match="finite"):
            net.with_flat(theta)


class TestLoss:
    def test_frozen_negative_constant(self):
        # B = -1, k=2, eps=0.1, eta=(0.1, 0.001, 0, 0)
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        data = manual_triple(spec, np.random.default_rng(1), kbc=kbc)
        cfg = TrainConfig(eta=(0.1, 0.001, 0.0, 0.0))
        total, parts = loss(constant_net(-1.0), data, cfg)
        assert parts[0] == 0.0
        assert parts[1] == pytest.approx(1.101, abs=1e-12)
        assert parts[2] == 0.0
        assert parts[3] == 0.0
        assert total == pytest.approx(1.101, abs=1e-12)

    def test_frozen_positive_constant(self):
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        data = manual_triple(spec, np.random.default_rng(2), kbc=kbc)
        cfg = TrainConfig(eta=(0.1, 0.001, 0.0, 0.0))
        _, parts = loss(constant_net(1.0), data, cfg)
        assert parts[0] == pytest.approx(1.1, abs=1e-12)
        assert parts[1] == 0.0

    def test_matches_reference(self):
        spec = toy_spec()
        rng = np.random.default_rng(3)
        kbc = KBCSpec(k=3, epsilon=0.05)
        cfg = TrainConfig(eta=(0.02, 0.01, 0.005, 0.005))
        for seed in range(5):
            data = manual_triple(spec, np.random.default_rng(seed), kbc=kbc)
            net = init_params(2, 4, mixed_sin_cos(4), seed=seed)
            total, _ = loss(net, data, cfg)
            assert total == pytest.approx(reference_loss(net, data, cfg), rel=1e-12)

    def test_empty_mask_rejected(self):
        spec = toy_spec()
        S = spec.X_U.sample(np.random.default_rng(0), 10)
        data = DatasetTriple(S=S, S_plus=S, S_kplus=S, spec=spec, kbc=KBCSpec(k=1, epsilon=0.0))
        assert data.rows["X_I"].size == 0 and data.rows["X_U"].size == data.size
        with pytest.raises(ValueError, match="region mask empty"):
            loss(constant_net(0.0), data, TrainConfig())

    def test_k1_unsafe_threshold_reduces(self):
        # with k=1 the unsafe hinge is ReLU(-B + eta[1])
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(5), kbc=KBCSpec(k=1, epsilon=0.7))
        net = init_params(2, 2, ("sin", "cos"), seed=9)
        cfg = TrainConfig(eta=(0.0, 0.01, 0.0, 0.0))
        _, parts = loss(net, data, cfg)
        b = net.forward_batch(data.S[region_masks(data)[1]])
        expected = np.maximum(-b + 0.01, 0.0).mean()
        assert parts[1] == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def test_zero_out_weights_structure(self):
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        data = manual_triple(spec, np.random.default_rng(6), kbc=kbc)
        cfg = TrainConfig(eta=(0.1, 0.001, 0.0, 0.0))
        net = NetworkParams(weights=np.arange(4.0).reshape(2, 2) + 1.0,
                            biases=np.array([0.3, -0.4]),
                            out_weights=np.zeros(2), out_bias=-0.2,
                            activations=("sin", "cos"))
        g = net.with_flat(gradient(net, data, cfg).flat)
        assert np.all(g.weights == 0.0) and np.all(g.biases == 0.0)
        # d/dc: indicator means from the two level terms (evolution terms cancel)
        b = -0.2
        expect = float(b + 0.1 > 0) - float(-b + kbc.lam + 0.001 > 0)
        assert g.out_bias == pytest.approx(expect, rel=1e-12)

    def test_finite_difference_oracle(self):
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta=(0.05, 0.01, 0.01, 0.01))
        step = 1e-5
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            data = manual_triple(spec, np.random.default_rng(seed), kbc=kbc)
            net = init_params(2, 3, ("square", "sin", "cos"), seed=seed)
            if _near_kink(net, data, cfg, 1e-3):
                continue
            analytic = gradient(net, data, cfg).flat
            flat = net.flat()
            for idx, unit in enumerate(np.eye(flat.size)):
                plus = net.with_flat(flat + step * unit)
                minus = net.with_flat(flat - step * unit)
                fd = (loss(plus, data, cfg)[0] - loss(minus, data, cfg)[0]) / (2 * step)
                scale = max(abs(fd), abs(analytic[idx]), 1.0)
                assert abs(analytic[idx] - fd) / scale <= 1e-5
            checked += 1

    def test_descent_direction(self):
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        data = manual_triple(spec, np.random.default_rng(8), kbc=kbc)
        cfg = TrainConfig(eta=(0.1, 0.001, 0.0, 0.0))
        net = init_params(2, 4, mixed_sin_cos(4), seed=3)
        base, _ = loss(net, data, cfg)
        g = gradient(net, data, cfg)
        eta = 1e-4
        moved = net.with_flat(net.flat() - eta * g.flat)
        assert loss(moved, data, cfg)[0] < base


class TestConditionTable:
    """Each hinge term is its condition's violation as the verifier states it."""

    CFG = TrainConfig(eta=(0.05, 0.02, 0.01, 0.03))

    def verifier_hinges(self, pipeline, net, data):
        """Per condition, max(amount + eta, 0) at the samples in its region, the
        amount being the last `condition_exprs` constraint with its sign."""
        _, _, _, _, model = pipeline
        task = VerificationTask(B=net.to_expr(), f1_sym=model.symbolic_step(),
                                fk_sym=model.symbolic_k_step(data.kbc.k), spec=data.spec,
                                kbc=data.kbc)
        hinges = []
        for (_, constraints, region), eta in zip(condition_exprs(task), self.CFG.eta):
            e, kind = constraints[-1]
            value = Tape([e]).eval_points(data.S[region.contains(data.S)])[0]
            hinges.append(np.maximum((-value if kind == "le0" else value) + eta, 0.0))
        return hinges

    def assert_agree(self, pipeline, net, data):
        g = gradient(net, data, self.CFG)
        hinges = self.verifier_hinges(pipeline, net, data)
        assert g.breakdown == pytest.approx([h.mean() for h in hinges], rel=0, abs=1e-12)
        assert all(h.any() for h in hinges)
        # dL/dc by central differences: c shifts B by the same amount at every site
        step, flat = 1e-7, net.flat()
        shifted = [loss(net.with_flat(flat + sign * step * np.eye(flat.size)[-1]), data,
                        self.CFG)[0] for sign in (1.0, -1.0)]
        assert g.flat[-1] == pytest.approx((shifted[0] - shifted[1]) / (2 * step), abs=1e-6)
        return g

    def test_trainer_and_verifier_follow_the_table(self, highly_nonlinear, monkeypatch):
        config, _, _, _, model = highly_nonlinear
        data = sample_dataset(config.safety_spec(), model, config.kbc(), 300, seed=0)
        net = init_params(2, 4, mixed_sin_cos(4), seed=2)
        difference = self.assert_agree(highly_nonlinear, net, data)
        # E2 as k-step invariance of {B <= 0}: B(fk(x)) > 0 where B(x) <= 0
        gate, _ = CONDITIONS["E2"][1]
        monkeypatch.setitem(CONDITIONS, "E2", ("X", [gate, ("fk", None, None, "gt0")]))
        invariance = self.assert_agree(highly_nonlinear, net, data)
        assert invariance.breakdown[:3] == difference.breakdown[:3]
        assert invariance.breakdown[3] != difference.breakdown[3]
        assert invariance.flat[-1] != difference.flat[-1]


class TestSinglePass:
    """The shared forward/backward pass against the straight-line reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("others", [0, 1, 40])
    def test_gradient_and_loss_bitwise(self, n, width, others):
        rng = np.random.default_rng(100 * n + 10 * width + others)
        spec = cube_spec(n)
        kbc = KBCSpec(k=3, epsilon=0.05)
        cfg = TrainConfig(eta=(0.02, 0.01, 0.005, 0.005))
        for trial in range(3):
            data = region_triple(spec, rng, others, kbc)
            acts = tuple(str(a) for a in rng.choice(ACTIVATIONS, width))
            net = init_params(n, width, acts, seed=int(rng.integers(1 << 30)))
            gw, gb, gv, gc, total = reference_gradient(net, data, cfg)
            g = gradient(net, data, cfg)
            reference = replace(net, weights=gw, biases=gb, out_weights=gv, out_bias=gc)
            assert np.array_equal(bits(g.flat), bits(reference.flat()))
            assert g.loss == total
            assert (g.loss, g.breakdown) == loss(net, data, cfg)

    @pytest.mark.parametrize("acts", SPARSE_ACTIVATIONS)
    @pytest.mark.parametrize("moved,active", [("none", 0), ("f1", 1), ("f1", 3), ("fk", 2),
                                              ("I", 1)])
    def test_gradient_bitwise_with_few_active_rows(self, acts, moved, active):
        # the backward pass skips inactive terms and sites, and with a sin or
        # cos unit forms derivatives only at the active rows
        cfg = TrainConfig()
        for seed in range(3):
            net, data = sparse_case(acts, moved, active, seed)
            B = net.forward_batch(data.S)
            e1 = net.forward_batch(data.S_plus) - B - data.kbc.epsilon > 0
            e2 = net.forward_batch(data.S_kplus) - B > 0
            assert (e1.sum(), e2.sum()) == {"f1": (active, 0), "fk": (0, active)}.get(
                moved, (0, 0))
            gw, gb, gv, gc, total = reference_gradient(net, data, cfg)
            g = gradient(net, data, cfg)
            reference = replace(net, weights=gw, biases=gb, out_weights=gv, out_bias=gc)
            assert np.array_equal(bits(g.flat), bits(reference.flat()))
            assert g.loss == total
            assert [b > 0 for b in g.breakdown] == [moved == t for t in ("I", "U", "f1", "fk")]
            # a zero loss leaves every entry +0.0
            assert np.any(bits(g.flat)) == (moved != "none")

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_activate_matches_per_column(self, width):
        rng = np.random.default_rng(width)
        for m in (1, 2, 37):
            z = rng.normal(0.0, 3.0, (m, width))
            acts = tuple(str(a) for a in rng.choice(ACTIVATIONS, width))
            g_ref, gp_ref = reference_activate(z, acts)
            assert np.array_equal(bits(_activate(z, acts)), bits(g_ref))
            assert np.array_equal(bits(_activate(z, acts, derivative=True)), bits(gp_ref))

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_activate_single_kind_matches_per_column(self, kind):
        # a network of one kind is activated in one call over the whole array
        z = np.random.default_rng(7).normal(0.0, 3.0, (37, 5))
        acts = (kind,) * 5
        g_ref, gp_ref = reference_activate(z, acts)
        assert np.array_equal(bits(_activate(z, acts)), bits(g_ref))
        assert np.array_equal(bits(_activate(z, acts, derivative=True)), bits(gp_ref))


def _near_kink(net, data, cfg, tol):
    kbc = data.kbc
    b = net.forward_batch(data.S)
    b1 = net.forward_batch(data.S_plus)
    bk = net.forward_batch(data.S_kplus)
    in_init, in_unsafe = region_masks(data)
    args = np.concatenate([
        b[in_init] + cfg.eta[0],
        -b[in_unsafe] + kbc.lam + cfg.eta[1],
        b1 - b - kbc.epsilon + cfg.eta[2],
        bk - b + cfg.eta[3],
    ])
    return bool(np.abs(args).min() < tol)


def reference_train(p0, data, cfg):
    """Adam over every epoch on the four parameter blocks one by one, with the
    straight-line `reference_gradient` and no early exit; returns the best
    parameters and the first zero-loss epoch."""
    W, b, v, c = p0.weights.copy(), p0.biases.copy(), p0.out_weights.copy(), p0.out_bias
    mom = [np.zeros_like(W), np.zeros_like(b), np.zeros_like(v), 0.0]
    sec = [np.zeros_like(W), np.zeros_like(b), np.zeros_like(v), 0.0]
    best_loss, best, first_zero = math.inf, (W.copy(), b.copy(), v.copy(), c), None

    def current():
        return replace(p0, weights=W, biases=b, out_weights=v, out_bias=c)

    for t in range(1, cfg.epochs + 1):
        *grads, total = reference_gradient(current(), data, cfg)
        if total < best_loss:
            best_loss, best = total, (W.copy(), b.copy(), v.copy(), c)
        if total == 0.0 and first_zero is None:
            first_zero = t
        new = []
        for i, (param, grad) in enumerate(zip((W, b, v, c), grads)):
            mom[i] = 0.9 * mom[i] + (1.0 - 0.9) * grad
            sec[i] = 0.999 * sec[i] + (1.0 - 0.999) * grad * grad
            m_hat = mom[i] / (1.0 - 0.9 ** t)
            v_hat = sec[i] / (1.0 - 0.999 ** t)
            new.append(param - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8))
        W, b, v, c = new[0], new[1], new[2], float(new[3])
    if reference_gradient(current(), data, cfg)[-1] < best_loss:
        best = (W, b, v, c)
    return replace(p0, weights=best[0], biases=best[1], out_weights=best[2],
                   out_bias=best[3]), first_zero


def zero_loss_instance():
    """A small instance that training drives to exactly zero loss."""
    data = manual_triple(toy_spec(), np.random.default_rng(12), m=30,
                         kbc=KBCSpec(k=2, epsilon=0.1))
    cfg = TrainConfig(eta=(0.01, 0.001, 0.001, 0.001), epochs=800, learning_rate=0.1)
    return init_params(2, 4, mixed_sin_cos(4), seed=2), data, cfg


def assert_same_params(a: NetworkParams, b: NetworkParams) -> None:
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
    assert np.array_equal(a.out_weights, b.out_weights)
    assert a.out_bias == b.out_bias


def count_gradient_calls(monkeypatch) -> list[int]:
    calls = [0]
    real = kbarrier.learner.gradient

    def counted(params, data, cfg):
        calls[0] += 1
        return real(params, data, cfg)

    monkeypatch.setattr(kbarrier.learner, "gradient", counted)
    return calls


class TestTrain:
    def _setup(self, seed=0):
        data = manual_triple(toy_spec(), np.random.default_rng(seed), m=60,
                             kbc=KBCSpec(k=2, epsilon=0.1))
        cfg = TrainConfig(eta=(0.01, 0.001, 0.0, 0.0), epochs=150, learning_rate=0.1)
        net = init_params(2, 4, mixed_sin_cos(4), seed=seed)
        return data, cfg, net

    def test_zero_epochs_is_identity(self):
        data, cfg, net = self._setup()
        cfg = TrainConfig(epochs=0, eta=(0.01, 0.001, 0.0, 0.0))
        assert train(net, data, cfg) is net

    def test_training_does_not_increase_best_loss(self):
        data, cfg, net = self._setup()
        before, _ = loss(net, data, cfg)
        after, _ = loss(train(net, data, cfg), data, cfg)
        assert after <= before

    def test_seeded_determinism(self):
        data, cfg, net = self._setup(seed=4)
        a = train(net, data, cfg)
        b = train(net, data, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert np.array_equal(a.out_weights, b.out_weights)
        assert a.out_bias == b.out_bias

    @pytest.mark.parametrize("rate", [1e200, 1.7e308])
    @pytest.mark.parametrize("activations", [("square",) * 3, ("sin", "sin", "cos")],
                             ids=["square", "sin-cos"])
    def test_divergence_is_reported(self, activations, rate):
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        data = manual_triple(spec, np.random.default_rng(20), m=30, kbc=kbc)
        # absurd learning rates overflow the parameters within a few steps
        cfg = TrainConfig(eta=(0.1, 0.001, 0.0, 0.0), epochs=10, learning_rate=rate)
        net = init_params(2, 3, activations, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as the exception
            with pytest.raises(TrainingDiverged, match="non-finite loss at epoch"):
                train(net, data, cfg)

    def test_parity_square_net_on_grown_polynomial_data(self, polynomial):
        config, _, _, _, model = polynomial
        spec, kbc = config.safety_spec(), config.kbc()
        cegis_cfg = config.cegis_config(0)
        data = sample_dataset(spec, model, kbc, config.samples, seed=0)
        for step, witness in enumerate(([-0.9, 0.4], [0.2, -0.3]), start=1):
            data = augment(data, witness, cegis_cfg, model, seed=step)
        cfg = replace(config.train_config(), epochs=150)
        p0 = init_params(2, 2, ("square", "square"), seed=0)
        expected, first_zero = reference_train(p0, data, cfg)
        assert first_zero is None
        assert_same_params(train(p0, data, cfg), expected)

    def test_epoch_parameters_are_contiguous_views_of_one_vector(self, monkeypatch):
        data, cfg, net = self._setup()
        seen = []
        real = kbarrier.learner.gradient

        def recording(params, data, cfg):
            seen.append(params)
            return real(params, data, cfg)

        monkeypatch.setattr(kbarrier.learner, "gradient", recording)
        train(net, data, replace(cfg, epochs=3))
        assert len(seen) == 3
        theta = seen[0].weights.base
        for params in seen:
            # a C-ordered W keeps `states @ W.T` on the BLAS path of a standalone array
            for arr in (params.weights, params.biases, params.out_weights):
                assert arr.flags.c_contiguous and arr.base is theta

    def test_parity_mixed_activations(self):
        kbc = KBCSpec(k=3, epsilon=0.05)
        data = manual_triple(toy_spec(), np.random.default_rng(31), m=80, kbc=kbc)
        cfg = TrainConfig(eta=(0.02, 0.01, 0.005, 0.005), epochs=120,
                          learning_rate=0.05)
        p0 = init_params(2, 5, ("square", "sin", "cos", "square", "sin"), seed=3)
        expected, _ = reference_train(p0, data, cfg)
        assert_same_params(train(p0, data, cfg), expected)

    def test_zero_loss_implies_strict_sample_conditions(self):
        # drive a small instance to exactly zero loss, then check every sample
        p0, data, cfg = zero_loss_instance()
        kbc = data.kbc
        net = train(p0, data, cfg)
        total, _ = loss(net, data, cfg)
        assert total == 0.0
        b = net.forward_batch(data.S)
        b1 = net.forward_batch(data.S_plus)
        bk = net.forward_batch(data.S_kplus)
        in_init, in_unsafe = region_masks(data)
        assert np.all(b[in_init] < 0.0)
        assert np.all(b[in_unsafe] > kbc.lam)
        assert np.all(b1 - b < kbc.epsilon)
        assert np.all(bk - b < 0.0)

    def test_zero_loss_exit_is_exact_and_early(self, monkeypatch):
        p0, data, cfg = zero_loss_instance()
        expected, first_zero = reference_train(p0, data, cfg)
        calls = count_gradient_calls(monkeypatch)
        assert_same_params(train(p0, data, cfg), expected)
        assert first_zero is not None and calls[0] == first_zero < cfg.epochs

    def test_one_gradient_call_per_epoch_without_zero_loss(self, monkeypatch):
        data, cfg, net = self._setup()
        # with S_kplus = S the k-step hinge is eta[3] > 0 for every candidate
        data = replace(data, S_kplus=data.S)
        cfg = replace(cfg, eta=cfg.eta[:3] + (0.01,))
        expected, first_zero = reference_train(net, data, cfg)
        assert first_zero is None
        calls = count_gradient_calls(monkeypatch)
        assert_same_params(train(net, data, cfg), expected)
        assert calls[0] == cfg.epochs


class TestToExpr:
    def test_constant_collapses(self):
        e = constant_net(-1.5).to_expr()
        assert isinstance(e, Const) and e.value == -1.5

    def test_reference_certificate_round_trip(self):
        net = make_reference_nonlinear()
        e = net.to_expr()
        rng = np.random.default_rng(13)
        for x in rng.uniform(-2, 2, size=(50, 2)):
            direct = (-0.55 * math.sin(0.54 * x[0] - 1.32 * x[1] + 1.14)
                      - 1.35 * math.sin(0.58 * x[0] - 0.47 * x[1] + 0.29)
                      + 0.65 * math.cos(0.72 * x[0] - 0.06 * x[1] + 1.40)
                      + 0.12 * math.cos(0.80 * x[0] - 0.05 * x[1] + 1.31) + 0.99)
            assert net.forward_batch(x[None, :])[0] == pytest.approx(direct, abs=1e-12)
            assert eval_point(e, x) == pytest.approx(direct, abs=1e-12)

    def test_square_network_is_degree_two_polynomial(self):
        net = init_params(2, 3, ("square",) * 3, seed=5)
        e = net.to_expr()
        stack, seen = [e], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            assert not isinstance(node, (Sin, Cos, Exp))
            if isinstance(node, Pow):
                assert node.exponent == 2
            stack.extend(_children(node))


class TestRegionIndices:
    @staticmethod
    def assert_indices_match(data):
        # one entry per region the conditions restrict to; X is every row
        assert list(data.rows) == list(dict.fromkeys(
            region for region, _ in CONDITIONS.values() if region != "X"))
        in_init, in_unsafe = region_masks(data)
        assert np.array_equal(data.rows["X_I"], np.flatnonzero(in_init))
        assert np.array_equal(data.rows["X_U"], np.flatnonzero(in_unsafe))

    def test_recomputed_by_replace(self):
        data = manual_triple(toy_spec(), np.random.default_rng(40))
        self.assert_indices_match(data)
        spec = data.spec
        moved = replace(data, spec=replace(spec, X_I=spec.X_U, X_U=spec.X_I))
        self.assert_indices_match(moved)
        assert np.array_equal(moved.rows["X_I"], data.rows["X_U"])
        assert np.array_equal(moved.rows["X_U"], data.rows["X_I"])

    def test_recomputed_by_augment(self, polynomial):
        config, _, _, _, model = polynomial
        spec, kbc = config.safety_spec(), config.kbc()
        data = sample_dataset(spec, model, kbc, 50, seed=1)
        # a witness inside X_U grows the unsafe rows
        grown = augment(data, spec.X_U.midpoint(), config.cegis_config(1), model, seed=2)
        self.assert_indices_match(grown)
        assert grown.rows["X_U"].size > data.rows["X_U"].size


class TestDatasetShape:
    @pytest.mark.parametrize("S", [np.zeros(4), np.zeros((4, 3))], ids=["1-D", "3-column"])
    def test_samples_must_match_the_spec(self, S):
        message = re.escape(f"S has shape {S.shape}; the spec needs (m, 2)")
        with pytest.raises(ValueError, match=message):
            DatasetTriple(S=S, S_plus=S, S_kplus=S, spec=toy_spec(), kbc=KBCSpec(k=2, epsilon=0.1))


class TestSampleDataset:
    def test_nonlinear_config_counts(self, highly_nonlinear):
        config, _, _, _, model = highly_nonlinear
        data = sample_dataset(config.safety_spec(), model, config.kbc(), 1000, seed=0)
        assert data.size >= 1000
        assert data.rows["X_I"].size >= 50
        assert data.rows["X_U"].size >= 50

    def test_seeded_repeatability(self, highly_nonlinear):
        config, _, _, _, model = highly_nonlinear
        spec, kbc = config.safety_spec(), config.kbc()
        a = sample_dataset(spec, model, kbc, 1, seed=123)
        b = sample_dataset(spec, model, kbc, 1, seed=123)
        assert np.array_equal(a.S, b.S)
        assert np.array_equal(a.S_kplus, b.S_kplus)

    def test_evolutions_use_the_model(self, highly_nonlinear):
        config, _, _, _, model = highly_nonlinear
        data = sample_dataset(config.safety_spec(), model, config.kbc(), 20, seed=7)
        for i in range(data.size):
            x = data.S[i:i + 1]
            assert data.S_plus[i] == pytest.approx(model.step_batch(x)[0], rel=1e-14, abs=1e-15)
            assert data.S_kplus[i] == pytest.approx(model.k_step_batch(x, 2)[0],
                                                    rel=1e-14, abs=1e-15)

    def test_dataset_carries_its_kbc(self, highly_nonlinear):
        config, _, _, _, model = highly_nonlinear
        kbc = config.kbc()
        assert sample_dataset(config.safety_spec(), model, kbc, 20, seed=7).kbc is kbc

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_give_the_bits_of_the_model(self, highly_nonlinear, k):
        # the sampled rows and the rows augment appends, at the dataset's horizon
        config, _, _, _, model = highly_nonlinear
        spec = config.safety_spec()
        data = sample_dataset(spec, model, replace(config.kbc(), k=k), 300, seed=k)
        assert np.array_equal(data.S_plus, model.step_batch(data.S))
        assert np.array_equal(data.S_kplus, model.k_step_batch(data.S, k))
        grown = augment(data, spec.X.midpoint(), config.cegis_config(1), model, seed=k)
        new = grown.S[data.size:]
        assert np.array_equal(grown.S_plus[data.size:], model.step_batch(new))
        assert np.array_equal(grown.S_kplus[data.size:], model.k_step_batch(new, k))
