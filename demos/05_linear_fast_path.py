"""Linear systems are the identity dictionary, and external data can be used.

A linear system x+ = A x is the data-driven construction over the
dictionary x0..x{n-1}: the model's coefficient matrix is the recovered A.
Over that dictionary the k-step map is composed in closed form as A^k x,
so the verifier checks the certificate against A x and A^k x directly.
This script recovers the system matrix from a handful of recorded states,
verifies certificates against it, and shows the CSV path for trajectories
recorded outside this toolkit.
"""

import tempfile
from pathlib import Path

import numpy as np

from kbarrier import (
    Box, ExprMap, KBCSpec, SafetySpec, VerificationTask, build_model,
    trajectory_from_csv, verify,
)
from kbarrier.expr import Const, Var

x1, x2 = Var(0), Var(1)
identity = ExprMap((x1, x2), 2)

# --- recover A from three recorded states -------------------------------
A = np.array([[0.9, 0.2], [-0.1, 0.8]])
x = np.array([1.0, 1.0])
states = [x]
for _ in range(3):
    states.append(A @ states[-1])
model = build_model(states, identity)
print("recovered A:", np.round(model.coeff, 12).tolist())

# --- verify certificates against the recovered dynamics -----------------
spec = SafetySpec(
    X=Box.from_bounds([(-2, 2), (-2, 2)]),
    X_I=Box.from_bounds([(-0.3, 0.3), (-0.3, 0.3)]),
    X_U=Box.from_bounds([(1.2, 1.8), (1.2, 1.8)]),
)
circle = x1 ** 2 + x2 ** 2 - Const(1.0)

# what touches its bound inside a box left undecided, by condition
UNDECIDED = {
    "I": "B touches 0 inside the initial region",
    "U": "B touches lambda inside the unsafe region",
    "E1": "the one-step difference B(f(x)) - B(x) - eps touches zero",
    "E2": "the k-step difference B(f^k(x)) - B(x) touches zero",
}

for k, eps in ((2, 0.1), (1, 0.0)):
    kbc = KBCSpec(k=k, epsilon=eps)
    verdict = verify(VerificationTask(B=circle, f1_sym=model.symbolic_step(),
                                      fk_sym=model.symbolic_k_step(k), spec=spec, kbc=kbc))
    extra = ""
    if verdict.kind == "delta_sat":
        extra = (f" on {verdict.condition}"
                 f" (box around {np.round(verdict.box.midpoint(), 4).tolist()}:"
                 f" {UNDECIDED[verdict.condition]} there,"
                 " which no interval subdivision can strictly refute)")
    elif verdict.kind == "counterexample":
        extra = f" on {verdict.condition} at {verdict.point}"
    print(f"k={k}, eps={eps}: {verdict.kind}{extra}")

# --- externally recorded trajectories come in over CSV ------------------
csv_path = Path(tempfile.mkdtemp()) / "recorded.csv"
with csv_path.open("w") as fh:
    fh.write("x1,x2\n")
    for s in states:
        fh.write(f"{float(s[0])!r},{float(s[1])!r}\n")
imported = build_model(trajectory_from_csv(csv_path, identity), identity)
print("model rebuilt from CSV matches:",
      bool(np.allclose(imported.coeff, model.coeff, atol=1e-10)))
