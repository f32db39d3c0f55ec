"""Command-line front end: simulate, synthesize, verify, grid, show-config.

Exit codes are part of the interface so CI scripts can assert outcomes:

    0  success (synthesize: certificate verified; verify: valid)
    1  verify found a counterexample or a delta-sat box
    2  configuration, input or output error
    3  rank failure while building the data-driven model
    4  verifier exhausted its box budget
    5  synthesis terminated without a verified certificate, or training diverged
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cegis as cegis_mod
from .configs import BUILTIN_NAMES, CaseStudyConfig, ConfigError, load_config
from .dynamics import RankDeficientData, build_model, collect_trajectory, states_to_csv
from .expr import Tape, format_expr, max_var_index, parse_expr
from .learner import TrainingDiverged, init_params
from .verifier import VerificationTask, verify

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_CONFIG = 2
EXIT_RANK = 3
EXIT_EXHAUSTED = 4
EXIT_TERMINATED = 5


def _config(args) -> CaseStudyConfig:
    """The named case study with the command's --k, --epsilon and --delta flags applied.

    The flags replace config fields, so they are validated exactly as the
    config's own values are, before any work starts.
    """
    flags = {name: getattr(args, name, None) for name in ("k", "epsilon", "delta")}
    return replace(load_config(args.config),
                   **{name: value for name, value in flags.items() if value is not None})


def _build_model(config: CaseStudyConfig):
    truth = config.truth_model()
    dictionary = config.dictionary_obj()
    trajectory = collect_trajectory(truth, dictionary, config.x0, config.trajectory_length)
    return truth, dictionary, build_model(trajectory, dictionary)


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ConfigError("--steps must be >= 0")
    config = load_config(args.config)
    # --x0 only moves the start of this rollout; the model keeps config.x0's data
    x0 = np.asarray(config.x0 if args.x0 is None else args.x0, dtype=float)
    if x0.shape != (config.n,):
        raise ConfigError("initial state dimension mismatch")
    truth, _, model = _build_model(config)
    stepper = truth.eval if args.model == "truth" else model.step
    rows = [x0]
    for _ in range(args.steps):
        rows.append(np.asarray(stepper(rows[-1]), dtype=float))
    out = Path(args.output)
    states_to_csv(rows, out)
    print(f"wrote {len(rows)} states to {out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    config = _config(args)
    loop = config.cegis_config(args.seed)
    _, _, model = _build_model(config)
    template = init_params(config.n, config.width, config.activations, args.seed)
    # an unwritable output path fails here, not after the whole loop has run
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = cegis_mod.run(config.safety_spec(), model, config.kbc(), template, loop,
                           delta=config.delta, max_boxes=config.max_boxes)

    (outdir / "report.json").write_text(report.to_json() + "\n")
    if report.verified:
        (outdir / "certificate.expr").write_text(format_expr(report.certificate) + "\n")
        meta = {
            "k": config.k,
            "epsilon": config.epsilon,
            "eta": list(config.eta),
            "seed": report.seed,
            "iterations": report.iterations,
            "width": config.width,
            "activations": list(config.activations),
        }
        (outdir / "certificate.meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"outcome: {report.outcome} after {report.iterations} iteration(s)")
    if report.verified:
        print(f"certificate written to {outdir / 'certificate.expr'}")
        return EXIT_OK
    if report.final_verdict is not None and report.final_verdict.kind == "exhausted":
        return EXIT_EXHAUSTED
    return EXIT_TERMINATED


def _load_certificate(path, n: int):
    try:
        certificate = parse_expr(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load certificate from {path}: {err}") from err
    if max_var_index(certificate) >= n:
        raise ConfigError(
            f"certificate uses variable indices beyond the {n}-dimensional state"
        )
    return certificate


def cmd_verify(args) -> int:
    config = _config(args)
    certificate = _load_certificate(args.certificate, config.n)
    _, _, model = _build_model(config)
    task = VerificationTask(B=certificate, f1_sym=model.symbolic_step(),
                            fk_sym=model.symbolic_k_step(config.k),
                            spec=config.safety_spec(), kbc=config.kbc(),
                            delta=config.delta, max_boxes=config.max_boxes)
    verdict = verify(task)
    payload = verdict.to_json()
    if args.output:
        Path(args.output).write_text(payload + "\n")
    print(payload)
    if verdict.kind == "valid":
        return EXIT_OK
    if verdict.kind == "exhausted":
        return EXIT_EXHAUSTED
    return EXIT_FALSIFIED


def cmd_grid(args) -> int:
    if args.resolution < 1:
        raise ConfigError("--resolution must be >= 1")
    config = _config(args)
    if config.n != 2:
        raise ConfigError("grids are only emitted for two-dimensional state spaces")
    certificate = _load_certificate(args.certificate, config.n)
    spec = config.safety_spec()
    lam = config.kbc().lam
    res = args.resolution
    axes = [np.linspace(iv.lo, iv.hi, res) for iv in spec.X.intervals]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel()])
    values = Tape([certificate]).eval_points(points)[0]
    band = (values.max() - values.min()) / (2.0 * res) if values.max() > values.min() else 1e-9

    def inside(box, pts):
        return np.all((pts >= box.lo()) & (pts <= box.hi()), axis=1)

    in_init = inside(spec.X_I, points)
    in_unsafe = inside(spec.X_U, points)
    out = Path(args.output)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "B", "in_init", "in_unsafe",
                         "near_zero_level", "near_unsafe_level"])
        for p, v, ii, iu in zip(points, values, in_init, in_unsafe):
            writer.writerow([repr(float(p[0])), repr(float(p[1])), repr(float(v)),
                             int(ii), int(iu),
                             int(abs(v) <= band), int(abs(v - lam) <= band)])
    print(f"wrote {len(points)} grid rows to {out}")
    return EXIT_OK


def cmd_show_config(args) -> int:
    config = load_config(args.config)
    print(json.dumps(config.to_dict(), indent=2))
    return EXIT_OK


def _parse_vector(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbarrier",
        description="Data-driven synthesis and interval verification of "
                    "k-inductive neural barrier certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll a trajectory and write it as CSV")
    p.add_argument("config", help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or JSON path")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--x0", type=_parse_vector, default=None,
                   help="initial state, e.g. '0.5,-1' (defaults to the config's)")
    p.add_argument("--model", choices=("truth", "data"), default="truth")
    p.add_argument("--output", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthesize", help="run the full train/verify loop")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--output-dir", default="out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="verify a stored certificate")
    p.add_argument("config")
    p.add_argument("certificate", help="path to a certificate .expr file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--output", default=None, help="also write the verdict JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="export certificate values on a uniform grid")
    p.add_argument("config")
    p.add_argument("certificate")
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--output", default="grid.csv")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("show-config", help="print a case-study config as JSON")
    p.add_argument("config")
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankDeficientData as err:
        print(f"rank failure: {err}", file=sys.stderr)
        return EXIT_RANK
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return EXIT_TERMINATED
    except (ConfigError, ValueError) as err:
        # validation errors from flag values (k, epsilon, delta, ...) land here
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
