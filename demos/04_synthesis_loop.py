"""Full synthesis loop: train, verify, learn from counterexamples, repeat.

Runs the counterexample-guided loop on the highly nonlinear study until the
branch-and-bound proves a candidate over the whole state box, then
re-verifies the result and writes a plot-ready grid CSV.
"""

import time

from kbarrier import (
    VerificationTask, build_model, builtin_config, collect_trajectory,
    format_expr, init_params, run, verify,
)

config = builtin_config("highly-nonlinear")
truth = config.truth_model()
dictionary = config.dictionary_obj()
trajectory = collect_trajectory(truth, dictionary, config.x0, config.trajectory_length)
model = build_model(trajectory, dictionary)
spec, kbc = config.safety_spec(), config.kbc()

seed = 0
t0 = time.time()
report = run(spec, model, kbc, init_params(2, config.width, config.activations, seed),
             config.cegis_config(seed), delta=config.delta, max_boxes=config.max_boxes)
print(f"outcome: {report.outcome} after {report.iterations} iteration(s) "
      f"in {time.time() - t0:.1f}s")
for record in report.records:
    witness = ""
    if record.counterexample is not None:
        witness = (f" at ({record.counterexample[0]:+.3f}, "
                   f"{record.counterexample[1]:+.3f})")
    print(f"  iteration {record.iteration}: loss {record.loss_start:.5f} -> "
          f"{record.loss_end:.6f}, verdict {record.verdict}"
          f"{' on ' + record.condition if record.condition else ''}{witness}, "
          f"|S| = {record.dataset_size}")

if report.verified:
    print()
    print("certificate:")
    print(format_expr(report.certificate))
    task = VerificationTask(B=report.certificate, f1_sym=model.symbolic_step(),
                            fk_sym=model.symbolic_k_step(kbc.k), spec=spec, kbc=kbc,
                            delta=config.delta)
    again = verify(task)
    print(f"independent re-verification: {again.kind} "
          f"({again.boxes_explored} boxes, {again.wall_time:.2f}s)")

    # plot-ready CSV via the command-line entry point
    from kbarrier.cli import main
    import tempfile, pathlib
    out = pathlib.Path(tempfile.mkdtemp()) / "certificate_grid.csv"
    cert_file = out.with_suffix(".expr")
    cert_file.write_text(format_expr(report.certificate) + "\n")
    main(["grid", "highly-nonlinear", str(cert_file), "--output", str(out)])
