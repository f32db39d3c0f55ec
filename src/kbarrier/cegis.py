"""Counterexample-guided synthesis loop: train, verify, augment, retrain.

The first iteration trains the candidate from scratch at the initial
learning rate; every later iteration resumes from the current parameters at
the (lower) retraining rate, after appending the verifier's witness plus a
cloud of samples around it to the dataset.  Delta-sat boxes are treated
like counterexamples for retraining purposes: their centre is appended, and
the loop keeps going until the verifier returns a strict `valid`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .dynamics import DataDrivenModel
from .expr import Expr, checked_int, format_expr
from .learner import DatasetTriple, NetworkParams, TrainConfig, loss, sample_dataset, train
from .verifier import KBCSpec, SafetySpec, Verdict, VerificationTask, verify

__all__ = ["CegisConfig", "IterationRecord", "CegisReport", "augment", "run"]


@dataclass(frozen=True)
class CegisConfig:
    """Loop controls: iteration cap, counterexample cloud, learning-rate schedule, seed.

    Iteration 1 trains at `train.learning_rate`, later ones at `lr_retrain`.
    `seed` drives the initial dataset and every counterexample cloud, so one
    seed and one start network give one report.
    """

    max_iterations: int = 20
    cex_points: int = 20
    cex_radius: float = 0.1
    lr_retrain: float = 0.05
    train: TrainConfig = field(default_factory=TrainConfig)
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("max_iterations", 0), ("cex_points", 1), ("samples", 1), ("seed", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), least))
        if not 0 < self.cex_radius < math.inf:
            raise ValueError("cex_radius must be > 0 and finite")
        if not 0 < self.lr_retrain <= self.train.learning_rate:
            raise ValueError("lr_retrain must be > 0 and not exceed learning_rate")


@dataclass(frozen=True)
class IterationRecord:
    """One loop iteration; the field order is the key order of its `report.json` entry."""

    iteration: int
    loss_start: float
    loss_end: float
    verdict: str
    condition: str | None
    counterexample: tuple[float, ...] | None
    margin: float | None
    dataset_size: int
    boxes_explored: int
    candidate: str  # candidate certificate in expression text form

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CegisReport:
    """Everything needed to replay a synthesis run.

    `outcome` and `iterations` are derived from `certificate` and `records`.
    """

    records: tuple[IterationRecord, ...]
    certificate: Expr | None
    final_verdict: Verdict | None
    seed: int
    reason: str = ""

    @property
    def outcome(self) -> str:
        return "verified" if self.verified else "terminated"

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def verified(self) -> bool:
        return self.certificate is not None

    def to_json(self) -> str:
        payload = {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "seed": self.seed,
            "reason": self.reason,
            "certificate": format_expr(self.certificate) if self.certificate else None,
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(payload, indent=2)


def augment(data: DatasetTriple, cex: Sequence[float], cfg: CegisConfig,
            model: DataDrivenModel, seed: int) -> DatasetTriple:
    """Append the witness plus cex_points samples from the ball around it.

    Samples are drawn uniformly from the L2 ball of radius cex_radius and
    clipped to the state box, so the dataset grows by exactly
    cex_points + 1 rows.  The grown dataset keeps `data.spec` and `data.kbc`.
    """
    cex = np.asarray(cex, dtype=float)
    spec = data.spec
    if not spec.X.contains(cex):
        raise ValueError("counterexample lies outside the state space")
    rng = np.random.default_rng(seed)
    n = spec.n
    # uniform in the ball: direction times radius ~ U^(1/n)
    directions = rng.normal(size=(cfg.cex_points, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = cfg.cex_radius * rng.uniform(size=(cfg.cex_points, 1)) ** (1.0 / n)
    cloud = cex[None, :] + directions * radii
    cloud = np.clip(cloud, spec.X.lo(), spec.X.hi())
    new_states = np.vstack([cex[None, :], cloud])

    return replace(data, S=np.vstack([data.S, new_states]),
                   S_plus=np.vstack([data.S_plus, model.step_batch(new_states)]),
                   S_kplus=np.vstack([data.S_kplus, model.k_step_batch(new_states, data.kbc.k)]))


def run(spec: SafetySpec, model: DataDrivenModel, kbc: KBCSpec,
        net: NetworkParams, cfg: CegisConfig,
        delta: float = VerificationTask.delta,
        max_boxes: int = VerificationTask.max_boxes) -> CegisReport:
    """Run the synthesis loop from the network `net` until valid or capped.

    The first iteration trains `net` itself.  `cfg.seed` drives the dataset
    and the counterexample clouds, so two runs from the same network with the
    same configuration and seed produce identical reports.
    """
    seed = cfg.seed
    if cfg.max_iterations == 0:
        return CegisReport(records=(), certificate=None, final_verdict=None,
                           seed=seed, reason="iteration cap is zero")

    f1_sym = model.symbolic_step()
    fk_sym = model.symbolic_k_step(kbc.k)

    data = sample_dataset(spec, model, kbc, cfg.samples, seed)
    params = net
    records: list[IterationRecord] = []
    certificate: Expr | None = None
    reason = "iteration cap reached without a valid certificate"

    for iteration in range(1, cfg.max_iterations + 1):
        rate = cfg.train.learning_rate if iteration == 1 else cfg.lr_retrain
        train_cfg = replace(cfg.train, learning_rate=rate)
        loss_start, _ = loss(params, data, train_cfg)
        params = train(params, data, train_cfg)
        loss_end, _ = loss(params, data, train_cfg)

        candidate = params.to_expr()
        task = VerificationTask(B=candidate, f1_sym=f1_sym, fk_sym=fk_sym,
                                spec=spec, kbc=kbc, delta=delta, max_boxes=max_boxes)
        verdict = verify(task)

        witness: tuple[float, ...] | None = None
        if verdict.kind == "counterexample":
            witness = verdict.point
        elif verdict.kind == "delta_sat":
            witness = tuple(verdict.box.midpoint())
        records.append(IterationRecord(
            iteration=iteration, loss_start=loss_start, loss_end=loss_end,
            verdict=verdict.kind, condition=verdict.condition,
            counterexample=witness, margin=verdict.margin,
            dataset_size=data.size, boxes_explored=verdict.boxes_explored,
            candidate=format_expr(candidate),
        ))

        if verdict.kind == "valid":
            certificate, reason = candidate, ""
            break
        if verdict.kind == "exhausted":
            reason = "verifier exhausted its box budget; raise max_boxes"
            break
        data = augment(data, witness, cfg, model, seed + iteration)

    return CegisReport(records=tuple(records), certificate=certificate, final_verdict=verdict,
                       seed=seed, reason=reason)
