"""Synthesis loop behaviour: augmentation, termination, replayability."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import kbarrier.cegis
from kbarrier import (
    Box, CegisConfig, CegisReport, KBCSpec, SafetySpec, TrainConfig, VerificationTask,
    augment, check_point, init_params, loss, parse_expr, run, sample_dataset, verify,
)
from kbarrier.cegis import IterationRecord
from kbarrier.dynamics import DataDrivenModel

from conftest import identity_dictionary


def identity_model() -> DataDrivenModel:
    return DataDrivenModel(coeff=np.eye(2), dictionary=identity_dictionary(2), sigma_min=1.0)


def toy_setup():
    spec = SafetySpec(
        X=Box.from_bounds([(-1, 1), (-1, 1)]),
        X_I=Box.from_bounds([(-0.2, 0.2), (-0.2, 0.2)]),
        X_U=Box.from_bounds([(0.6, 0.9), (0.6, 0.9)]),
    )
    model = identity_model()
    kbc = KBCSpec(k=2, epsilon=0.1)
    cfg = CegisConfig(max_iterations=10, cex_points=20, cex_radius=0.1, lr_retrain=0.05,
                      train=TrainConfig(eta=(0.05, 0.001, 0.0, 0.0), epochs=400,
                                        learning_rate=0.1),
                      samples=200, seed=0)
    return spec, model, kbc, cfg


class TestCegisConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr_retrain", 0.0), ("lr_retrain", -1.0), ("lr_retrain", math.nan),
        ("lr_retrain", math.inf), ("lr_retrain", 0.1000001),
        ("cex_radius", 0.0), ("cex_radius", math.nan), ("cex_radius", math.inf),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            replace(toy_setup()[3], **{field: value})

    def test_retraining_rate_may_equal_the_initial_rate(self):
        cfg = toy_setup()[3]
        assert replace(cfg, lr_retrain=cfg.train.learning_rate).lr_retrain == 0.1


class TestAugment:
    def _data(self):
        spec, model, kbc, cfg = toy_setup()
        return spec, model, kbc, cfg, sample_dataset(spec, model, kbc, 50, seed=1)

    def test_corner_witness_clipped(self):
        spec, model, kbc, cfg, data = self._data()
        grown = augment(data, [1.0, -1.0], cfg, model, seed=3)
        new_rows = grown.S[data.size:]
        assert np.all(new_rows >= spec.X.lo()) and np.all(new_rows <= spec.X.hi())

    def test_grows_by_exactly_cex_points_plus_one(self):
        _, model, kbc, cfg, data = self._data()
        grown = augment(data, [0.0, 0.0], cfg, model, seed=4)
        assert grown.size == data.size + 21

    def test_appended_rows_follow_the_model(self):
        _, model, kbc, cfg, data = self._data()
        grown = augment(data, [0.3, 0.2], cfg, model, seed=5)
        tail = slice(data.size, None)
        assert grown.S_plus[tail] == pytest.approx(model.step_batch(grown.S[tail]), abs=1e-14)
        # the grown dataset keeps the horizon its k-step rows are built for
        assert grown.kbc is data.kbc is kbc
        assert np.array_equal(grown.S_kplus[tail], model.k_step_batch(grown.S[tail], kbc.k))

    def test_witness_outside_x_rejected(self):
        _, model, kbc, cfg, data = self._data()
        with pytest.raises(ValueError, match="outside the state space"):
            augment(data, [2.0, 0.0], cfg, model, seed=6)


class TestRunToy:
    def test_zero_iterations_terminates_without_training(self):
        spec, model, kbc, cfg = toy_setup()
        report = run(spec, model, kbc, init_params(2, 2, ("square", "square"), 0),
                     replace(cfg, max_iterations=0))
        assert report.outcome == "terminated"
        assert report.iterations == 0
        assert report.records == ()

    def test_verified_certificate_re_verifies(self):
        spec, model, kbc, cfg = toy_setup()
        template = init_params(2, 2, ("square", "square"), 0)
        report = run(spec, model, kbc, template, cfg)
        assert report.verified, report.reason
        f1 = model.symbolic_step()
        task = VerificationTask(B=report.certificate, f1_sym=f1,
                                fk_sym=model.symbolic_k_step(2), spec=spec, kbc=kbc,
                                delta=0.001)
        assert verify(task).kind == "valid"

    def test_seed_drives_the_run(self, monkeypatch):
        spec, model, kbc, cfg = toy_setup()
        template = init_params(2, 2, ("square", "square"), 0)
        first_datasets = []
        real = kbarrier.cegis.sample_dataset

        def recorded(*args):
            first_datasets.append(real(*args))
            return first_datasets[-1]

        monkeypatch.setattr(kbarrier.cegis, "sample_dataset", recorded)
        reports = [run(spec, model, kbc, template, replace(cfg, max_iterations=1, seed=seed))
                   for seed in (4, 4, 5)]
        assert reports[0].to_json() == reports[1].to_json()
        assert [r.seed for r in reports] == [4, 4, 5]
        assert np.array_equal(first_datasets[0].S, first_datasets[1].S)
        assert not np.array_equal(first_datasets[0].S, first_datasets[2].S)

    def test_record_keys_are_the_report_keys(self):
        record = IterationRecord(iteration=1, loss_start=0.5, loss_end=0.25,
                                 verdict="counterexample", condition="U",
                                 counterexample=(0.1, 0.2), margin=0.01, dataset_size=300,
                                 boxes_explored=7, candidate="(var 0)")
        keys = ["iteration", "loss_start", "loss_end", "verdict", "condition",
                "counterexample", "margin", "dataset_size", "boxes_explored", "candidate"]
        assert list(record.to_dict()) == keys
        report = CegisReport(records=(record,), certificate=None, final_verdict=None, seed=0)
        payload = json.loads(report.to_json())
        assert list(payload) == ["outcome", "iterations", "seed", "reason", "certificate",
                                 "records"]
        assert (payload["outcome"], payload["iterations"]) == ("terminated", 1)
        assert payload["records"] == [dict(record.to_dict(), counterexample=[0.1, 0.2])]
        assert list(payload["records"][0]) == keys

    def test_starts_from_the_given_network(self):
        spec, model, kbc, cfg = toy_setup()
        assert cfg.seed == 0
        start = init_params(2, 2, ("square", "square"), 7)
        report = run(spec, model, kbc, start, replace(cfg, max_iterations=1))
        data = sample_dataset(spec, model, kbc, cfg.samples, 0)
        assert report.records[0].loss_start == loss(start, data, cfg.train)[0]
        reseeded = init_params(2, 2, ("square", "square"), 0)
        assert report.records[0].loss_start != loss(reseeded, data, cfg.train)[0]

    def test_replay_is_bitwise(self):
        spec, model, kbc, cfg = toy_setup()
        template = init_params(2, 2, ("square", "square"), 0)
        a = run(spec, model, kbc, template, cfg)
        b = run(spec, model, kbc, template, cfg)
        assert a.to_json() == b.to_json()

    def test_dataset_grows_after_counterexamples(self):
        spec, model, kbc, cfg = toy_setup()
        template = init_params(2, 2, ("square", "square"), 0)
        report = run(spec, model, kbc, template, cfg)
        sizes = [r.dataset_size for r in report.records]
        for i in range(1, len(sizes)):
            assert sizes[i] == sizes[i - 1] + cfg.cex_points + 1

    def test_recorded_witnesses_violate_their_candidates(self):
        spec, model, kbc, cfg = toy_setup()
        template = init_params(2, 2, ("square", "square"), 0)
        report = run(spec, model, kbc, template, cfg)
        f1 = model.symbolic_step()
        fk = model.symbolic_k_step(kbc.k)
        for record in report.records:
            if record.counterexample is None:
                continue
            task = VerificationTask(B=parse_expr(record.candidate), f1_sym=f1,
                                    fk_sym=fk, spec=spec, kbc=kbc, delta=0.001)
            violations = check_point(task, record.counterexample)
            if record.verdict == "counterexample":
                assert violations and max(m for _, m in violations) > 0
            # delta-sat centres may sit on the undecided boundary; flagged as such
            else:
                assert record.verdict == "delta_sat"


def report_sha256(report) -> str:
    """The sha256 of the `report.json` the CLI writes for `report`."""
    return hashlib.sha256((report.to_json() + "\n").encode()).hexdigest()


class TestEndToEndSmoke:
    # the seed-0 reports under numpy 2.4.6; a change that moves an outcome
    # re-baselines them
    DIGESTS = {
        "polynomial": "82f86a7a73fdc42b7323fc83eb3cff76afd24bcc616f1b368dcf046d0a397bd6",
        "pendulum": "fec38ad7a153046099a634d4adc442e35ae15ec1310618d301fc98f9acddac28",
    }

    @pytest.mark.parametrize("name,cap", [("polynomial", 2), ("pendulum", 2)])
    def test_pipeline_completes_with_recorded_outcome(self, name, cap, request):
        from dataclasses import replace
        config, _, _, _, model = request.getfixturevalue(name.replace("-", "_"))
        config = replace(config, max_iterations=cap)
        report = run(config.safety_spec(), model, config.kbc(),
                     init_params(2, config.width, config.activations, 0),
                     config.cegis_config(0), delta=config.delta,
                     max_boxes=config.max_boxes)
        assert report.outcome in ("verified", "terminated")
        assert 1 <= report.iterations <= cap
        for record in report.records:
            assert record.verdict in ("valid", "counterexample",
                                      "delta_sat", "exhausted")
            assert record.loss_end <= record.loss_start + 1e-12
        assert report_sha256(report) == self.DIGESTS[name]


class TestRunNonlinear:
    def test_narrative_shape_counterexample_then_valid(self, highly_nonlinear):
        # seed 0: the first candidate is falsified, a later retrain verifies
        config, _, _, _, model = highly_nonlinear
        spec, kbc = config.safety_spec(), config.kbc()
        template = init_params(2, config.width, config.activations, 0)
        report = run(spec, model, kbc, template, config.cegis_config(0),
                     delta=config.delta, max_boxes=config.max_boxes)
        assert report.verified
        assert report.iterations >= 2
        assert report.records[0].verdict in ("counterexample", "delta_sat")
        assert report.records[-1].verdict == "valid"
        assert report.final_verdict.kind == "valid"
        # the seed-0 report under numpy 2.4.6
        assert report_sha256(report) == (
            "15ae690d828ee1e804ae0725021fd5e1c741a92edc22d37d2e61393c0e57f7a8")


class TestRunPolynomial:
    def test_full_seed0_report(self, polynomial):
        # all 20 iterations of the all-`square` network, whose training takes
        # the dense backward pass; the seed-0 report under numpy 2.4.6
        config, _, _, _, model = polynomial
        report = run(config.safety_spec(), model, config.kbc(),
                     init_params(2, config.width, config.activations, 0),
                     config.cegis_config(0), delta=config.delta, max_boxes=config.max_boxes)
        assert report.iterations == config.max_iterations == 20
        assert report_sha256(report) == (
            "0beb34253c5a3f92eece04f30f6c62c7e127518e949a7c6b7b3668aec1bf286c")
