"""Train a candidate certificate on sampled evolutions and export it.

Samples states across the state box (with quotas inside the initial and
unsafe regions), computes their 1-step and k-step evolutions under the
data-driven model, trains the one-hidden-layer candidate with Adam, and
prints the loss breakdown plus the closed-form expression of the result.
"""

import numpy as np

from kbarrier import (
    build_model, builtin_config, collect_trajectory, format_expr,
    init_params, loss, sample_dataset, train,
)

config = builtin_config("highly-nonlinear")
truth = config.truth_model()
dictionary = config.dictionary_obj()
trajectory = collect_trajectory(truth, dictionary, config.x0, config.trajectory_length)
model = build_model(trajectory, dictionary)

spec = config.safety_spec()
kbc = config.kbc()
train_cfg = config.train_config()

data = sample_dataset(spec, model, kbc, m=1000, seed=0)
print(f"dataset: {data.size} samples "
      f"({int(data.mask_init.sum())} in the initial region, "
      f"{int(data.mask_unsafe.sum())} in the unsafe region)")

params = init_params(spec.n, config.width, config.activations, seed=0)
start, parts = loss(params, data, kbc, train_cfg)
print(f"loss before training: {start:.4f}  "
      f"(init {parts[0]:.4f}, unsafe {parts[1]:.4f}, "
      f"1-step {parts[2]:.4f}, k-step {parts[3]:.4f})")

params = train(params, data, kbc, train_cfg)
end, parts = loss(params, data, kbc, train_cfg)
print(f"loss after training (at most {train_cfg.epochs} epochs): {end:.6f}  "
      f"(init {parts[0]:.6f}, unsafe {parts[1]:.6f}, "
      f"1-step {parts[2]:.6f}, k-step {parts[3]:.6f})")

print()
print("candidate as a closed-form expression:")
print(format_expr(params.to_expr()))

# quick empirical sanity check on fresh samples (not a proof)
rng = np.random.default_rng(1)
fresh = spec.X.sample(rng, 20000)
b = params.forward_batch(fresh)
b1 = params.forward_batch(model.step_batch(fresh))
bk = params.forward_batch(model.k_step_batch(fresh, kbc.k))
in_i = np.all((fresh >= spec.X_I.lo()) & (fresh <= spec.X_I.hi()), axis=1)
in_u = np.all((fresh >= spec.X_U.lo()) & (fresh <= spec.X_U.hi()), axis=1)
print()
print("empirical margins on 20000 fresh samples (negative = satisfied):")
print(f"  init level     max B          = {b[in_i].max():+.4f}")
print(f"  unsafe level   max lam - B    = {(kbc.lam - b[in_u]).max():+.4f}")
print(f"  1-step bound   max increase-eps = {(b1 - b - kbc.epsilon)[b <= kbc.lam].max():+.4f}")
print(f"  k-step bound   max increase   = {(bk - b)[b <= 0].max():+.4f}")
