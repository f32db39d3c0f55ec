"""Audit the two reference certificates bundled with the case studies.

The interval branch-and-bound either proves a certificate over the whole
state box or produces a concrete witness that re-confirms under exact
arithmetic.  Both reference certificates fail the conventional (k=1, eps=0)
reading; the polynomial one also fails its own k=3 reading -- the k-step
decrease is violated by far more than coefficient rounding can explain,
which an independent dense-grid scan confirms.
"""

import numpy as np

from kbarrier import (
    KBCSpec, NetworkParams, VerificationTask, build_model, builtin_config,
    check_point, collect_trajectory, verify,
)
from kbarrier.expr import Const, Tape, Var

x1, x2 = Var(0), Var(1)

NONLINEAR_CERT = NetworkParams(
    weights=np.array([[0.54, -1.32], [0.58, -0.47], [0.72, -0.06], [0.80, -0.05]]),
    biases=np.array([1.14, 0.29, 1.40, 1.31]),
    out_weights=np.array([-0.55, -1.35, 0.65, 0.12]),
    out_bias=0.99,
    activations=("sin", "sin", "cos", "cos"),
).to_expr()

POLYNOMIAL_CERT = (Const(0.02) * x1 ** 2 + Const(0.02) * (x1 * x2)
                   - Const(0.12) * x1 - Const(0.04) * x2 ** 2
                   + Const(0.04) * x2 + Const(0.10))


def audit(config_name, certificate, k, epsilon):
    config = builtin_config(config_name)
    truth = config.truth_model()
    dictionary = config.dictionary_obj()
    trajectory = collect_trajectory(truth, dictionary, config.x0,
                                    config.trajectory_length)
    model = build_model(trajectory, dictionary)
    task = VerificationTask(B=certificate, f1_sym=model.symbolic_step(),
                            fk_sym=model.symbolic_k_step(k),
                            spec=config.safety_spec(),
                            kbc=KBCSpec(k=k, epsilon=epsilon), delta=0.001)
    verdict = verify(task)
    line = f"{config_name} with k={k}, eps={epsilon}: {verdict.kind}"
    if verdict.kind == "counterexample":
        line += (f" on {verdict.condition} at "
                 f"({verdict.point[0]:+.4f}, {verdict.point[1]:+.4f})"
                 f" margin {verdict.margin:+.5f}")
    print(line)
    return task, verdict


print("=== conventional reading (k=1, eps=0) ===")
audit("highly-nonlinear", NONLINEAR_CERT, k=1, epsilon=0.0)
task, _ = audit("polynomial", POLYNOMIAL_CERT, k=1, epsilon=0.0)
probe = [0.0, 255.0 / 128.0]
print(f"  documented probe point {probe}: violations {check_point(task, probe)}")

print()
print("=== k-inductive reading ===")
audit("highly-nonlinear", NONLINEAR_CERT, k=2, epsilon=0.1)
task, verdict = audit("polynomial", POLYNOMIAL_CERT, k=3, epsilon=0.1)

# independent dense-grid cross-check of the polynomial verdict
config = builtin_config("polynomial")
truth = config.truth_model()
dictionary = config.dictionary_obj()
model = build_model(collect_trajectory(truth, dictionary, config.x0, 6), dictionary)
axis = np.linspace(-2, 2, 401)
g1, g2 = np.meshgrid(axis, axis, indexing="ij")
pts = np.column_stack([g1.ravel(), g2.ravel()])
tape = Tape([POLYNOMIAL_CERT])
b = tape.eval_points(pts)[0]
b3 = tape.eval_points(model.k_step_batch(pts, 3))[0]
worst = (b3 - b)[b <= 0].max()
print(f"  grid cross-check: worst k-step increase on the sub-level set = {worst:+.4f}"
      " (rounding of the stated coefficients accounts for at most ~0.04)")
