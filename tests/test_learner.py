"""Forward pass, loss arithmetic, analytic gradients and training behaviour."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import kbarrier.learner
from kbarrier import (
    Box, DatasetTriple, KBCSpec, NetworkParams, SafetySpec, TrainConfig, TrainingDiverged,
    augment, eval_point, gradient, init_params, loss, mixed_sin_cos, sample_dataset, train,
)
from kbarrier.learner import ACTIVATIONS, _activate
from kbarrier.expr import Const, Pow, Sin, Cos, Exp
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
        ("learning_rate", math.inf), ("eta1", -1e-300), ("eta1", math.nan),
        ("eta1", math.inf), ("eta4", math.nan),
    ])
    def test_train_settings_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            TrainConfig(**{field: value})

    def test_train_settings_boundaries_accepted(self):
        TrainConfig(learning_rate=5e-324, eta1=0.0, eta4=1e300)

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
                  drift: float = 0.05) -> DatasetTriple:
    """Hand-built dataset with a synthetic shift standing in for the dynamics."""
    S = np.vstack([
        spec.X.sample(rng, m),
        spec.X_I.sample(rng, 5),
        spec.X_U.sample(rng, 5),
    ])
    S_plus = S + drift
    S_kplus = S + 2 * drift
    return DatasetTriple(S=S, S_plus=S_plus, S_kplus=S_kplus, spec=spec)


def reference_loss(params, data, kbc, cfg):
    """Straight-line re-evaluation of the four-term hinge loss."""
    relu = lambda t: max(t, 0.0)
    li = lu = l1 = lk = 0.0
    n_i = n_u = 0
    for i in range(data.size):
        b = params.forward(data.S[i])
        b1 = params.forward(data.S_plus[i])
        bk = params.forward(data.S_kplus[i])
        if data.mask_init[i]:
            li += relu(b + cfg.eta1)
            n_i += 1
        if data.mask_unsafe[i]:
            lu += relu(-b + kbc.lam + cfg.eta2)
            n_u += 1
        l1 += relu(b1 - b - kbc.epsilon + cfg.eta3)
        lk += relu(bk - b + cfg.eta4)
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


def reference_gradient(params, data, kbc, cfg):
    """Straight-line gradient and loss: a separate forward pass per site for
    the loss and again for the gradient, with the same operations in the
    same order as `gradient`, so the results must agree bit for bit."""
    W, bias, v, c = params.weights, params.biases, params.out_weights, params.out_bias
    acts = params.activations
    B_s = reference_activate(data.S @ W.T + bias, acts)[0] @ v + c
    B_1 = reference_activate(data.S_plus @ W.T + bias, acts)[0] @ v + c
    B_k = reference_activate(data.S_kplus @ W.T + bias, acts)[0] @ v + c
    arg_i = B_s[data.mask_init] + cfg.eta1
    arg_u = -B_s[data.mask_unsafe] + kbc.lam + cfg.eta2
    arg_1 = B_1 - B_s - kbc.epsilon + cfg.eta3
    arg_k = B_k - B_s + cfg.eta4
    total = float(sum((
        float(np.maximum(arg_i, 0.0).mean()),
        float(np.maximum(arg_u, 0.0).mean()),
        float(np.maximum(arg_1, 0.0).mean()),
        float(np.maximum(arg_k, 0.0).mean()),
    )))

    m = data.size
    coef_s = np.zeros(m)
    coef_s[data.mask_init] += (arg_i > 0).astype(float) / int(data.mask_init.sum())
    coef_s[data.mask_unsafe] -= (arg_u > 0).astype(float) / int(data.mask_unsafe.sum())
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


def region_triple(spec: SafetySpec, rng: np.random.Generator, others: int) -> DatasetTriple:
    """Exactly one sample in each of X_I and X_U, plus `others` outside both."""
    S = spec.X.sample(rng, 4 * others + 8)
    in_i = np.all((S >= spec.X_I.lo()) & (S <= spec.X_I.hi()), axis=1)
    in_u = np.all((S >= spec.X_U.lo()) & (S <= spec.X_U.hi()), axis=1)
    S = np.vstack([S[~in_i & ~in_u][:others], spec.X_I.sample(rng, 1), spec.X_U.sample(rng, 1)])
    drift = rng.normal(0.0, 0.1, S.shape[1])
    return DatasetTriple(S=S, S_plus=S + drift, S_kplus=S + 3 * drift, spec=spec)


class TestForward:
    def test_constant_network(self):
        net = constant_net(-1.0)
        assert net.forward([0.3, 0.7]) == -1.0
        assert net.forward([-2.0, 2.0]) == -1.0

    def test_single_quadratic_node(self):
        net = NetworkParams(weights=np.array([[1.0, 0.0]]), biases=np.zeros(1),
                            out_weights=np.array([1.0]), out_bias=0.0,
                            activations=("square",))
        for x in ([0.5, 3.0], [-1.2, 0.0]):
            assert net.forward(x) == pytest.approx(x[0] ** 2, rel=1e-12)

    def test_matches_symbolic_export(self):
        rng = np.random.default_rng(0)
        net = init_params(2, 5, ("square", "sin", "cos", "sin", "square"), seed=1)
        e = net.to_expr()
        for x in rng.uniform(-2, 2, size=(100, 2)):
            assert net.forward(x) == pytest.approx(eval_point(e, x), abs=1e-10)


class TestLoss:
    def test_frozen_negative_constant(self):
        # B = -1, k=2, eps=0.1, eta=(0.1, 0.001, 0, 0)
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(1))
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta1=0.1, eta2=0.001)
        total, parts = loss(constant_net(-1.0), data, kbc, cfg)
        assert parts[0] == 0.0
        assert parts[1] == pytest.approx(1.101, abs=1e-12)
        assert parts[2] == 0.0
        assert parts[3] == 0.0
        assert total == pytest.approx(1.101, abs=1e-12)

    def test_frozen_positive_constant(self):
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(2))
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta1=0.1, eta2=0.001)
        _, parts = loss(constant_net(1.0), data, kbc, cfg)
        assert parts[0] == pytest.approx(1.1, abs=1e-12)
        assert parts[1] == 0.0

    def test_matches_reference(self):
        spec = toy_spec()
        rng = np.random.default_rng(3)
        kbc = KBCSpec(k=3, epsilon=0.05)
        cfg = TrainConfig(eta1=0.02, eta2=0.01, eta3=0.005, eta4=0.005)
        for seed in range(5):
            data = manual_triple(spec, np.random.default_rng(seed))
            net = init_params(2, 4, mixed_sin_cos(4), seed=seed)
            total, _ = loss(net, data, kbc, cfg)
            assert total == pytest.approx(reference_loss(net, data, kbc, cfg), rel=1e-12)

    def test_empty_mask_rejected(self):
        spec = toy_spec()
        S = spec.X_U.sample(np.random.default_rng(0), 10)
        data = DatasetTriple(S=S, S_plus=S, S_kplus=S, spec=spec)
        assert not data.mask_init.any() and data.mask_unsafe.all()
        with pytest.raises(ValueError, match="region mask empty"):
            loss(constant_net(0.0), data, KBCSpec(k=1, epsilon=0.0), TrainConfig())

    def test_k1_unsafe_threshold_reduces(self):
        # with k=1 the unsafe hinge is ReLU(-B + eta2)
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(5))
        net = init_params(2, 2, ("sin", "cos"), seed=9)
        cfg = TrainConfig(eta2=0.01)
        _, parts = loss(net, data, KBCSpec(k=1, epsilon=0.7), cfg)
        b = net.forward_batch(data.S[data.mask_unsafe])
        expected = np.maximum(-b + 0.01, 0.0).mean()
        assert parts[1] == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def test_zero_out_weights_structure(self):
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(6))
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta1=0.1, eta2=0.001)
        net = NetworkParams(weights=np.arange(4.0).reshape(2, 2) + 1.0,
                            biases=np.array([0.3, -0.4]),
                            out_weights=np.zeros(2), out_bias=-0.2,
                            activations=("sin", "cos"))
        g = gradient(net, data, kbc, cfg)
        assert np.all(g.weights == 0.0) and np.all(g.biases == 0.0)
        # d/dc: indicator means from the two level terms (evolution terms cancel)
        b = -0.2
        expect = float(b + 0.1 > 0) - float(-b + kbc.lam + 0.001 > 0)
        assert g.out_bias == pytest.approx(expect, rel=1e-12)

    def test_finite_difference_oracle(self):
        spec = toy_spec()
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta1=0.05, eta2=0.01, eta3=0.01, eta4=0.01)
        step = 1e-5
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            data = manual_triple(spec, np.random.default_rng(seed))
            net = init_params(2, 3, ("square", "sin", "cos"), seed=seed)
            if _near_kink(net, data, kbc, cfg, 1e-3):
                continue
            g = gradient(net, data, kbc, cfg)
            flat = _flatten(net)
            analytic = np.concatenate([g.weights.ravel(), g.biases, g.out_weights, [g.out_bias]])
            for idx in range(len(flat)):
                plus = _unflatten(net, flat, idx, step)
                minus = _unflatten(net, flat, idx, -step)
                fd = (loss(plus, data, kbc, cfg)[0] - loss(minus, data, kbc, cfg)[0]) / (2 * step)
                scale = max(abs(fd), abs(analytic[idx]), 1.0)
                assert abs(analytic[idx] - fd) / scale <= 1e-5
            checked += 1

    def test_descent_direction(self):
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(8))
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta1=0.1, eta2=0.001)
        net = init_params(2, 4, mixed_sin_cos(4), seed=3)
        base, _ = loss(net, data, kbc, cfg)
        g = gradient(net, data, kbc, cfg)
        eta = 1e-4
        moved = NetworkParams(
            weights=net.weights - eta * g.weights,
            biases=net.biases - eta * g.biases,
            out_weights=net.out_weights - eta * g.out_weights,
            out_bias=net.out_bias - eta * g.out_bias,
            activations=net.activations,
        )
        assert loss(moved, data, kbc, cfg)[0] < base


class TestSinglePass:
    """The shared forward/backward pass against the straight-line reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("others", [0, 1, 40])
    def test_gradient_and_loss_bitwise(self, n, width, others):
        rng = np.random.default_rng(100 * n + 10 * width + others)
        spec = cube_spec(n)
        kbc = KBCSpec(k=3, epsilon=0.05)
        cfg = TrainConfig(eta1=0.02, eta2=0.01, eta3=0.005, eta4=0.005)
        for trial in range(3):
            data = region_triple(spec, rng, others)
            acts = tuple(str(a) for a in rng.choice(ACTIVATIONS, width))
            net = init_params(n, width, acts, seed=int(rng.integers(1 << 30)))
            gw, gb, gv, gc, total = reference_gradient(net, data, kbc, cfg)
            g = gradient(net, data, kbc, cfg)
            assert np.array_equal(g.weights, gw)
            assert np.array_equal(g.biases, gb)
            assert np.array_equal(g.out_weights, gv)
            assert g.out_bias == gc
            assert g.loss == total == loss(net, data, kbc, cfg)[0]

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_activate_matches_per_column(self, width):
        rng = np.random.default_rng(width)
        for m in (1, 2, 37):
            z = rng.normal(0.0, 3.0, (m, width))
            acts = tuple(str(a) for a in rng.choice(ACTIVATIONS, width))
            g_ref, gp_ref = reference_activate(z, acts)
            g, gp = _activate(z, acts, with_grad=True)
            assert np.array_equal(g, g_ref) and np.array_equal(gp, gp_ref)
            g_only, none = _activate(z, acts)
            assert np.array_equal(g_only, g_ref) and none is None

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_activate_single_kind_matches_per_column(self, kind):
        # a network of one kind is activated in one call over the whole array
        z = np.random.default_rng(7).normal(0.0, 3.0, (37, 5))
        acts = (kind,) * 5
        g_ref, gp_ref = reference_activate(z, acts)
        g, gp = _activate(z, acts, with_grad=True)
        assert np.array_equal(g, g_ref) and np.array_equal(gp, gp_ref)


def _flatten(net):
    return np.concatenate([net.weights.ravel(), net.biases, net.out_weights, [net.out_bias]])


def _unflatten(net, flat, idx, delta):
    flat = flat.copy()
    flat[idx] += delta
    h, n = net.weights.shape
    w_end = h * n
    return NetworkParams(weights=flat[:w_end].reshape(h, n),
                         biases=flat[w_end:w_end + h],
                         out_weights=flat[w_end + h:w_end + 2 * h],
                         out_bias=float(flat[-1]),
                         activations=net.activations)


def _near_kink(net, data, kbc, cfg, tol):
    b = net.forward_batch(data.S)
    b1 = net.forward_batch(data.S_plus)
    bk = net.forward_batch(data.S_kplus)
    args = np.concatenate([
        b[data.mask_init] + cfg.eta1,
        -b[data.mask_unsafe] + kbc.lam + cfg.eta2,
        b1 - b - kbc.epsilon + cfg.eta3,
        bk - b + cfg.eta4,
    ])
    return bool(np.abs(args).min() < tol)


def reference_train(p0, data, kbc, cfg):
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
        *grads, total = reference_gradient(current(), data, kbc, cfg)
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
    if reference_gradient(current(), data, kbc, cfg)[-1] < best_loss:
        best = (W, b, v, c)
    return replace(p0, weights=best[0], biases=best[1], out_weights=best[2],
                   out_bias=best[3]), first_zero


def zero_loss_instance():
    """A small instance that training drives to exactly zero loss."""
    data = manual_triple(toy_spec(), np.random.default_rng(12), m=30)
    kbc = KBCSpec(k=2, epsilon=0.1)
    cfg = TrainConfig(eta1=0.01, eta2=0.001, eta3=0.001, eta4=0.001,
                      epochs=800, learning_rate=0.1)
    return init_params(2, 4, mixed_sin_cos(4), seed=2), data, kbc, cfg


def assert_same_params(a: NetworkParams, b: NetworkParams) -> None:
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)
    assert np.array_equal(a.out_weights, b.out_weights)
    assert a.out_bias == b.out_bias


def count_gradient_calls(monkeypatch) -> list[int]:
    calls = [0]
    real = kbarrier.learner.gradient

    def counted(params, data, kbc, cfg):
        calls[0] += 1
        return real(params, data, kbc, cfg)

    monkeypatch.setattr(kbarrier.learner, "gradient", counted)
    return calls


class TestTrain:
    def _setup(self, seed=0):
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(seed), m=60)
        kbc = KBCSpec(k=2, epsilon=0.1)
        cfg = TrainConfig(eta1=0.01, eta2=0.001, epochs=150, learning_rate=0.1)
        net = init_params(2, 4, mixed_sin_cos(4), seed=seed)
        return data, kbc, cfg, net

    def test_zero_epochs_is_identity(self):
        data, kbc, cfg, net = self._setup()
        cfg = TrainConfig(epochs=0, eta1=0.01, eta2=0.001)
        assert train(net, data, kbc, cfg) is net

    def test_training_does_not_increase_best_loss(self):
        data, kbc, cfg, net = self._setup()
        before, _ = loss(net, data, kbc, cfg)
        after, _ = loss(train(net, data, kbc, cfg), data, kbc, cfg)
        assert after <= before

    def test_seeded_determinism(self):
        data, kbc, cfg, net = self._setup(seed=4)
        a = train(net, data, kbc, cfg)
        b = train(net, data, kbc, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert np.array_equal(a.out_weights, b.out_weights)
        assert a.out_bias == b.out_bias

    @pytest.mark.parametrize("rate", [1e200, 1.7e308])
    @pytest.mark.parametrize("activations", [("square",) * 3, ("sin", "sin", "cos")],
                             ids=["square", "sin-cos"])
    def test_divergence_is_reported(self, activations, rate):
        spec = toy_spec()
        data = manual_triple(spec, np.random.default_rng(20), m=30)
        kbc = KBCSpec(k=2, epsilon=0.1)
        # absurd learning rates overflow the parameters within a few steps
        cfg = TrainConfig(eta1=0.1, eta2=0.001, epochs=10, learning_rate=rate)
        net = init_params(2, 3, activations, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as the exception
            with pytest.raises(TrainingDiverged, match="non-finite loss at epoch"):
                train(net, data, kbc, cfg)

    def test_parity_square_net_on_grown_polynomial_data(self, polynomial):
        config, _, _, _, model = polynomial
        spec, kbc = config.safety_spec(), config.kbc()
        cegis_cfg = config.cegis_config(0)
        data = sample_dataset(spec, model, kbc, config.samples, seed=0)
        for step, witness in enumerate(([-0.9, 0.4], [0.2, -0.3]), start=1):
            data = augment(data, witness, cegis_cfg, model, kbc, seed=step)
        cfg = replace(config.train_config(), epochs=150)
        p0 = init_params(2, 2, ("square", "square"), seed=0)
        expected, first_zero = reference_train(p0, data, kbc, cfg)
        assert first_zero is None
        assert_same_params(train(p0, data, kbc, cfg), expected)

    def test_epoch_parameters_are_contiguous_views_of_one_vector(self, monkeypatch):
        data, kbc, cfg, net = self._setup()
        seen = []
        real = kbarrier.learner.gradient

        def recording(params, data, kbc, cfg):
            seen.append(params)
            return real(params, data, kbc, cfg)

        monkeypatch.setattr(kbarrier.learner, "gradient", recording)
        train(net, data, kbc, replace(cfg, epochs=3))
        assert len(seen) == 3
        theta = seen[0].weights.base
        for params in seen:
            # a C-ordered W keeps `states @ W.T` on the BLAS path of a standalone array
            for arr in (params.weights, params.biases, params.out_weights):
                assert arr.flags.c_contiguous and arr.base is theta

    def test_parity_mixed_activations(self):
        data = manual_triple(toy_spec(), np.random.default_rng(31), m=80)
        kbc = KBCSpec(k=3, epsilon=0.05)
        cfg = TrainConfig(eta1=0.02, eta2=0.01, eta3=0.005, eta4=0.005, epochs=120,
                          learning_rate=0.05)
        p0 = init_params(2, 5, ("square", "sin", "cos", "square", "sin"), seed=3)
        expected, _ = reference_train(p0, data, kbc, cfg)
        assert_same_params(train(p0, data, kbc, cfg), expected)

    def test_zero_loss_implies_strict_sample_conditions(self):
        # drive a small instance to exactly zero loss, then check every sample
        p0, data, kbc, cfg = zero_loss_instance()
        net = train(p0, data, kbc, cfg)
        total, _ = loss(net, data, kbc, cfg)
        assert total == 0.0
        b = net.forward_batch(data.S)
        b1 = net.forward_batch(data.S_plus)
        bk = net.forward_batch(data.S_kplus)
        assert np.all(b[data.mask_init] < 0.0)
        assert np.all(b[data.mask_unsafe] > kbc.lam)
        assert np.all(b1 - b < kbc.epsilon)
        assert np.all(bk - b < 0.0)

    def test_zero_loss_exit_is_exact_and_early(self, monkeypatch):
        p0, data, kbc, cfg = zero_loss_instance()
        expected, first_zero = reference_train(p0, data, kbc, cfg)
        calls = count_gradient_calls(monkeypatch)
        assert_same_params(train(p0, data, kbc, cfg), expected)
        assert first_zero is not None and calls[0] == first_zero < cfg.epochs

    def test_one_gradient_call_per_epoch_without_zero_loss(self, monkeypatch):
        data, kbc, cfg, net = self._setup()
        # with S_kplus = S the k-step hinge is eta4 > 0 for every candidate
        data = replace(data, S_kplus=data.S)
        cfg = replace(cfg, eta4=0.01)
        expected, first_zero = reference_train(net, data, kbc, cfg)
        assert first_zero is None
        calls = count_gradient_calls(monkeypatch)
        assert_same_params(train(net, data, kbc, cfg), expected)
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
            assert net.forward(x) == pytest.approx(direct, abs=1e-12)
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
        assert np.array_equal(data.idx_init, np.flatnonzero(data.mask_init))
        assert np.array_equal(data.idx_unsafe, np.flatnonzero(data.mask_unsafe))

    def test_recomputed_by_replace(self):
        data = manual_triple(toy_spec(), np.random.default_rng(40))
        self.assert_indices_match(data)
        spec = data.spec
        moved = replace(data, spec=replace(spec, X_I=spec.X_U, X_U=spec.X_I))
        self.assert_indices_match(moved)
        assert np.array_equal(moved.idx_init, data.idx_unsafe)
        assert np.array_equal(moved.idx_unsafe, data.idx_init)

    def test_recomputed_by_augment(self, polynomial):
        config, _, _, _, model = polynomial
        spec, kbc = config.safety_spec(), config.kbc()
        data = sample_dataset(spec, model, kbc, 50, seed=1)
        # a witness inside X_U grows the unsafe rows
        grown = augment(data, spec.X_U.midpoint(), config.cegis_config(1), model, kbc, seed=2)
        self.assert_indices_match(grown)
        assert grown.idx_unsafe.size > data.idx_unsafe.size


class TestSampleDataset:
    def test_nonlinear_config_counts(self, highly_nonlinear):
        config, _, _, _, model = highly_nonlinear
        data = sample_dataset(config.safety_spec(), model, config.kbc(), 1000, seed=0)
        assert data.size >= 1000
        assert data.mask_init.sum() >= 50
        assert data.mask_unsafe.sum() >= 50

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
            assert data.S_plus[i] == pytest.approx(model.step(data.S[i]), rel=1e-14, abs=1e-15)
            assert data.S_kplus[i] == pytest.approx(model.k_step(data.S[i], 2), rel=1e-14, abs=1e-15)
