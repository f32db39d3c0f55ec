"""Trajectory collection, right-inverse construction and model exactness."""

import numpy as np
import pytest

from kbarrier import (
    Box, ExprMap, RankDeficientData, TrajectoryData,
    build_model, collect_trajectory, trajectory_from_csv, trajectory_from_states,
    trajectory_to_csv,
)
from kbarrier.dynamics import DataDrivenModel
from kbarrier.expr import Const, Tape, Var, eval_interval, eval_point, lin_comb, substitute

from conftest import identity_dictionary

X1, X2 = Var(0), Var(1)


class TestCollectTrajectory:
    def test_nonlinear_study_first_columns(self, highly_nonlinear):
        config, truth, dictionary, trajectory, _ = highly_nonlinear
        assert trajectory.X0[:, 0] == pytest.approx([0.5, -1.0])
        assert trajectory.X1[:, 0] == pytest.approx(truth.eval([0.5, -1.0]))

    def test_constant_dictionary_row(self):
        truth = ExprMap((Const(0.5) * Var(0),), 1)
        dictionary = ExprMap((Var(0), Const(1.0)), 1)
        trajectory = collect_trajectory(truth, dictionary, [1.0], T=2)
        assert np.all(trajectory.D0[1] == 1.0)

    def test_polynomial_shift_consistency(self, polynomial):
        _, _, _, trajectory, _ = polynomial
        assert trajectory.T == 6
        for i in range(trajectory.T - 1):
            assert trajectory.X1[:, i] == pytest.approx(trajectory.X0[:, i + 1], abs=0)

    def test_too_few_samples(self, polynomial):
        _, truth, dictionary, _, _ = polynomial
        with pytest.raises(ValueError, match="insufficient samples"):
            collect_trajectory(truth, dictionary, [0.5, -2.0], T=4)

    def test_truth_needs_one_expression_per_dimension(self):
        truth = ExprMap((Var(0) + Var(1),), 2)
        with pytest.raises(ValueError, match="one step expression per dimension"):
            collect_trajectory(truth, identity_dictionary(2), [0.0, 1.0], T=3)


class TestExprMap:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one expression"):
            ExprMap((), 2)

    def test_variable_beyond_dimension_rejected(self):
        with pytest.raises(ValueError, match="beyond the state dimension"):
            ExprMap((Var(0), Var(2)), 2)

    def test_eval_matches_batch(self):
        m = ExprMap((X1 * X2, Const(3.0), X2), 2)
        assert m.size == 3
        assert np.array_equal(m.eval([2.0, -1.0]), [-2.0, 3.0, -1.0])
        assert m.eval_batch(np.array([[2.0, -1.0], [0.5, 4.0]])).shape == (2, 3)


class TestBuildModel:
    def test_identity_dictionary_data(self):
        dictionary = ExprMap((X1, X2, X1 * X2), 2)
        trajectory = TrajectoryData(
            X0=np.arange(6.0).reshape(2, 3), X1=np.ones((2, 3)), D0=np.eye(3),
        )
        model = build_model(trajectory, dictionary)
        assert np.allclose(model.Q, np.eye(3), atol=1e-12)

    def test_polynomial_residual_contract(self, polynomial):
        _, _, _, trajectory, model = polynomial
        residual = np.abs(trajectory.D0 @ model.Q - np.eye(5)).max()
        assert residual <= 1e-8

    def test_random_full_rank_residual(self):
        # randomized construction oracle: 100 seeds, 4x9 data
        for seed in range(100):
            rng = np.random.default_rng(seed)
            D0 = rng.normal(size=(4, 9))
            trajectory = TrajectoryData(X0=rng.normal(size=(2, 9)),
                                        X1=rng.normal(size=(2, 9)), D0=D0)
            dictionary = ExprMap((X1, X2, X1 * X2, X1 ** 2), 2)
            model = build_model(trajectory, dictionary)
            assert np.abs(D0 @ model.Q - np.eye(4)).max() <= 1e-8

    def test_rank_deficient_rejected(self):
        row = np.linspace(0.0, 1.0, 5)
        D0 = np.vstack([row, 2.0 * row])
        trajectory = TrajectoryData(X0=np.zeros((1, 5)), X1=np.zeros((1, 5)), D0=D0)
        dictionary = ExprMap((Var(0), Var(0) ** 2), 1)
        with pytest.raises(RankDeficientData, match="persistency of excitation"):
            build_model(trajectory, dictionary)


class TestStep:
    def test_origin_fixed_point(self, polynomial):
        _, _, _, _, model = polynomial
        assert model.step([0.0, 0.0]) == pytest.approx([0.0, 0.0], abs=0)

    def test_matches_truth(self, polynomial):
        _, truth, _, _, model = polynomial
        rng = np.random.default_rng(42)
        for x in rng.uniform(-2, 2, size=(100, 2)):
            assert np.abs(model.step(x) - truth.eval(x)).max() <= 1e-8

    def test_replays_training_column(self, highly_nonlinear):
        _, _, _, trajectory, model = highly_nonlinear
        assert model.step([0.5, -1.0]) == pytest.approx(trajectory.X1[:, 0], abs=1e-9)


class TestKStep:
    def test_base_case(self, polynomial):
        _, _, _, _, model = polynomial
        x = np.array([0.3, -0.7])
        assert np.array_equal(model.k_step(x, 1), model.step(x))

    def test_unrolled(self, polynomial):
        _, _, _, _, model = polynomial
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 2)
        assert np.array_equal(model.k_step(x, 2), model.step(model.step(x)))

    def test_matches_truth_iterated(self, polynomial):
        _, truth, _, _, model = polynomial
        rng = np.random.default_rng(4)
        for x in rng.uniform(-1.5, 1.5, size=(50, 2)):
            t = x.copy()
            for _ in range(3):
                t = truth.eval(t)
            assert np.abs(model.k_step(x, 3) - t).max() <= 1e-7

    def test_k_validation(self, polynomial):
        _, _, _, _, model = polynomial
        with pytest.raises(ValueError):
            model.k_step([0.0, 0.0], 0)


class TestSymbolicStep:
    def test_identity_dynamics(self):
        model = DataDrivenModel(Q=np.eye(2), X1=np.eye(2), dictionary=identity_dictionary(2),
                                sigma_min=1.0)
        f1 = model.symbolic_step()
        assert isinstance(f1[0], Var) and f1[0].index == 0
        assert isinstance(f1[1], Var) and f1[1].index == 1

    def test_agrees_with_numeric(self, polynomial):
        _, _, _, _, model = polynomial
        f1 = model.symbolic_step()
        rng = np.random.default_rng(5)
        for x in rng.uniform(-2, 2, size=(100, 2)):
            sym = [eval_point(c, x) for c in f1]
            assert np.abs(np.array(sym) - model.step(x)).max() <= 1e-10

    def test_self_composition_matches_two_steps(self, polynomial):
        _, _, _, _, model = polynomial
        f1 = model.symbolic_step()
        f2 = [substitute(c, f1) for c in f1]
        rng = np.random.default_rng(6)
        for x in rng.uniform(-1, 1, size=(20, 2)):
            sym = [eval_point(c, x) for c in f2]
            assert np.abs(np.array(sym) - model.k_step(x, 2)).max() <= 1e-9

    def test_symbolic_k_step_agrees(self, polynomial, highly_nonlinear):
        for bundle, k in ((polynomial, 3), (highly_nonlinear, 2)):
            _, _, _, _, model = bundle
            fk = model.symbolic_k_step(k)
            rng = np.random.default_rng(7)
            for x in rng.uniform(-1.2, 1.2, size=(25, 2)):
                sym = [eval_point(c, x) for c in fk]
                assert np.abs(np.array(sym) - model.k_step(x, k)).max() <= 1e-8

    def test_deep_composition_compiles_and_agrees(self, polynomial):
        # 300 nested substitutions: no walk over the DAG may recurse per level
        _, _, _, _, model = polynomial
        fk = model.symbolic_k_step(300)
        points = np.random.default_rng(8).uniform(-0.2, 0.2, size=(50, 2))
        got = np.column_stack(Tape(fk).eval_points(points))
        assert np.abs(got - model.k_step_batch(points, 300)).max() <= 1e-9

    def test_identity_dictionary_composes_the_matrix_power(self):
        # substituting A x into itself encloses A^k x more loosely over a box
        # (each state variable appears once per path); the closed form does not
        A = np.array([[0.9, 0.2], [-0.1, 0.8]])
        model = DataDrivenModel(Q=np.eye(2), X1=A, dictionary=identity_dictionary(2),
                                sigma_min=1.0)
        X = Box.from_bounds([(-2, 2), (-2, 2)])
        for k in (2, 3):
            Ak = np.linalg.matrix_power(model.coeff, k)
            closed = [lin_comb(Ak[i], (X1, X2)) for i in range(2)]
            fk = model.symbolic_k_step(k)
            for got, want in zip(fk, closed):
                assert eval_interval(got, X) == eval_interval(want, X)


def linear_model(X0, X1) -> DataDrivenModel:
    """x+ = A x from state data: build_model over the identity dictionary."""
    X0 = np.asarray(X0, dtype=float)
    return build_model(TrajectoryData(X0=X0, X1=X1, D0=X0), identity_dictionary(X0.shape[0]))


def rollout(A, x, steps):
    states = [np.asarray(x, dtype=float)]
    for _ in range(steps):
        states.append(A @ states[-1])
    return states


class TestLinearModel:
    def test_scalar_recovery(self):
        # x+ = 0.9 x, two samples from x0 = 1
        trajectory = trajectory_from_states([[1.0], [0.9], [0.81]], identity_dictionary(1))
        model = build_model(trajectory, identity_dictionary(1))
        assert model.coeff[0, 0] == pytest.approx(0.9, abs=1e-10)

    def test_random_recovery(self):
        # randomized oracle: stable 2x2 systems, T = 3 samples
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = rng.uniform(-1, 1, (2, 2))
            A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
            states = rollout(A, rng.uniform(-1, 1, 2), 3)
            dictionary = identity_dictionary(2)
            model = build_model(trajectory_from_states(states, dictionary), dictionary)
            assert np.abs(model.coeff - A).max() <= 1e-8

    def test_zero_trajectory_rejected(self):
        dictionary = identity_dictionary(2)
        with pytest.raises(RankDeficientData):
            build_model(trajectory_from_states(np.zeros((4, 2)), dictionary), dictionary)

    def test_k_step_base(self):
        model = linear_model(np.array([[1.0, 0.5], [0.0, 1.0]]),
                             np.array([[0.5, 0.25], [0.5, 1.0]]))
        x = np.array([1.0, 2.0])
        assert np.array_equal(model.k_step(x, 1), model.coeff @ x)

    def test_k_zero_rejected(self):
        model = linear_model(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            model.k_step([1.0, 1.0], 0)

    def test_k_step_matches_sequential(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(-1, 1, (2, 2))
        states = rollout(A, rng.uniform(-1, 1, 2), 2)
        model = linear_model(np.column_stack(states[:2]), np.column_stack(states[1:3]))
        x = rng.uniform(-1, 1, 2)
        expected = x.copy()
        for _ in range(4):
            expected = model.coeff @ expected
        assert np.abs(model.k_step(x, 4) - expected).max() <= 1e-12


class TestModelInvariants:
    def test_exactness_all_case_studies(self, highly_nonlinear, polynomial, pendulum):
        for bundle in (highly_nonlinear, polynomial, pendulum):
            _, truth, _, _, model = bundle
            rng = np.random.default_rng(0)
            pts = rng.uniform(-2, 2, size=(1000, 2))
            err = np.abs(model.step_batch(pts) - truth.eval_batch(pts)).max()
            assert err <= 1e-8

    def test_k_step_recursion(self, highly_nonlinear):
        _, _, _, _, model = highly_nonlinear
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 2)
        for k in range(2, 6):
            assert np.array_equal(model.k_step(x, k), model.step(model.k_step(x, k - 1)))

    def test_linear_consistency_with_dictionary_model(self):
        # linear truth map rolled out symbolically, or numpy states passed in:
        # both routes recover the same matrix
        rng = np.random.default_rng(9)
        A = rng.uniform(-0.8, 0.8, (2, 2))
        x = rng.uniform(-1, 1, 2)
        dictionary = identity_dictionary(2)
        truth = ExprMap(tuple(lin_comb(A[i], (X1, X2)) for i in range(2)), 2)
        simulated = build_model(collect_trajectory(truth, dictionary, x, 3), dictionary)
        recorded = build_model(trajectory_from_states(rollout(A, x, 3), dictionary), dictionary)
        assert np.abs(simulated.coeff - recorded.coeff).max() <= 1e-10
        assert np.abs(recorded.coeff - A).max() <= 1e-10

    def test_superfluous_term_robustness(self, highly_nonlinear):
        # same trajectory, dictionary extended with an unused term
        config, truth, dictionary, _, model = highly_nonlinear
        from kbarrier.expr import Sin
        bigger = ExprMap(dictionary.exprs + (Sin(X2),), 2)
        trajectory = collect_trajectory(truth, bigger, config.x0, 8)
        bigger_model = build_model(trajectory, bigger)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, size=(200, 2))
        assert np.abs(bigger_model.step_batch(pts) - model.step_batch(pts)).max() <= 1e-8


class TestCsvRoundTrip:
    def test_round_trip(self, polynomial, tmp_path):
        _, _, dictionary, trajectory, _ = polynomial
        path = tmp_path / "traj.csv"
        trajectory_to_csv(trajectory, path)
        back = trajectory_from_csv(path, dictionary)
        assert np.array_equal(back.X0, trajectory.X0)
        assert np.array_equal(back.X1, trajectory.X1)
        assert np.array_equal(back.D0, trajectory.D0)

    def test_import_validation(self, polynomial, tmp_path):
        _, _, dictionary, _, _ = polynomial
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
        with pytest.raises(ValueError, match="insufficient samples"):
            trajectory_from_csv(path, dictionary)

    def test_non_finite_state_rejected(self, polynomial, tmp_path):
        _, _, dictionary, _, _ = polynomial
        path = tmp_path / "nan.csv"
        rows = [f"{0.1 * i!r},{0.2 * i!r}" for i in range(7)]
        rows[3] = "0.3,nan"
        path.write_text("x1,x2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="state 3 has a non-finite component 1"):
            trajectory_from_csv(path, dictionary)

    def test_ragged_rows_rejected(self, polynomial, tmp_path):
        _, _, dictionary, _, _ = polynomial
        path = tmp_path / "ragged.csv"
        rows = [f"{0.1 * i!r},{0.2 * i!r}" for i in range(7)]
        rows[2] = "0.2,0.4,0.6"
        path.write_text("x1,x2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="ragged rows"):
            trajectory_from_csv(path, dictionary)
