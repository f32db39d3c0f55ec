"""One recorded trajectory is enough to reproduce the dynamics exactly.

Builds the data-driven closed loop for each bundled case study and compares
it against the (otherwise hidden) ground truth on random states, then shows
a linear system's matrix recovered from n+1 samples by the same
construction over the identity dictionary x0..x{n-1}.  A trajectory is its
array of states; build_model lifts it through the dictionary it is given.
"""

import numpy as np

from kbarrier import (
    BUILTIN_NAMES, ExprMap, Var, build_model, builtin_config, collect_trajectory,
)

rng = np.random.default_rng(0)

print("=== dictionary models from a single trajectory ===")
for name in BUILTIN_NAMES:
    config = builtin_config(name)
    truth = config.truth_model()
    dictionary = config.dictionary_obj()
    trajectory = collect_trajectory(truth, dictionary, config.x0,
                                    config.trajectory_length)
    model = build_model(trajectory, dictionary)

    points = config.safety_spec().X.sample(rng, 1000)
    err = np.abs(model.step_batch(points) - truth.eval_batch(points)).max()
    print(f"{name:>18}: T={len(trajectory) - 1} samples, N={dictionary.size} terms, "
          f"sigma_min={model.sigma_min:.2e}, worst one-step error {err:.2e}")

print()
print("=== linear system: A from n+1 samples, identity dictionary ===")
A = np.array([[0.8, 0.3], [-0.2, 0.7]])
x = np.array([1.0, -0.5])
states = [x]
for _ in range(3):
    states.append(A @ states[-1])
identity = ExprMap((Var(0), Var(1)), 2)
model = build_model(states, identity)
print("true A:     ", A.tolist())
print("recovered A:", np.round(model.coeff, 12).tolist())
