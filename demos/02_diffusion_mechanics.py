"""
Diffusion mechanics on coverage bits
====================================

Forward noising, the two reverse samplers, and classifier-free guidance,
demonstrated on a hand-made two-pattern dataset: failing rows look like
(1,1,0,0), passing rows like (0,0,1,1).
"""

import numpy as np

from faultlab.augment import binarize
from faultlab.diffusion import (
    TrainConfig,
    ancestral_sample,
    dpm_solve,
    encode_bits,
    make_schedule,
    q_sample,
    train,
)
from faultlab.neural import FAIL_CLASS, PASS_CLASS

rng = np.random.default_rng(0)

# --- the noise schedule -----------------------------------------------------
sched = make_schedule(1000, 1e-4, 0.02)
print("schedule: T=1000, beta in [1e-4, 0.02]")
for t in (1, 250, 500, 1000):
    print(f"  t={t:4d}  abar={sched.alpha_bar[t - 1]:.6f}  "
          f"lambda={float(sched.lambda_at(t)):+.3f}")

# --- forward noising ----------------------------------------------------------
x0 = encode_bits(np.array([[1, 1, 0, 0]]))
print("\nforward noising of (1,1,0,0):")
for t in (1, 250, 500, 1000):
    eps = rng.standard_normal(x0.shape)
    xt = q_sample(x0, t, eps, sched)
    print(f"  t={t:4d}  x_t = {np.round(xt[0], 3)}")

# --- train a tiny conditional model -----------------------------------------
data = np.array([[1, 1, 0, 0]] * 4 + [[0, 0, 1, 1]] * 8, dtype=np.int8)
labels = np.array([1] * 4 + [0] * 8)
cfg = TrainConfig(epochs=1500, lr=1e-3)
bundle = train(data, labels, cfg, rng=np.random.default_rng(3))
print(f"\ntrained {len(bundle.losses)} epochs; "
      f"loss {bundle.losses[0]:.2f} -> {np.mean(bundle.losses[-50:]):.2f}")

# --- sampling: slow chain vs fast ODE ----------------------------------------
def show(tag, rows):
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    summary = ", ".join(
        f"{''.join(map(str, u))} x{c}" for u, c in
        sorted(zip(uniq.tolist(), counts.tolist()), key=lambda p: -p[1]))
    print(f"  {tag}: {summary}")

n = 40
print(f"\n{n} samples conditioned on the failing class (gamma=2):")
slow = binarize(ancestral_sample(bundle, n, np.random.default_rng(11),
                                 label=FAIL_CLASS, gamma=2.0))
show("ancestral, 1000 steps", slow)
fast = binarize(dpm_solve(bundle, n, np.random.default_rng(11),
                          label=FAIL_CLASS, gamma=2.0, steps=25, order=2))
show("fast ODE,   25 steps ", fast)

print(f"\n{n} samples conditioned on the passing class:")
show("fast ODE", binarize(dpm_solve(bundle, n, np.random.default_rng(12),
                                    label=PASS_CLASS, gamma=2.0, steps=25)))

# --- guidance scale sweep -------------------------------------------------------
print("\nfraction matching the failing pattern vs guidance scale:")
for gamma in (0.0, 1.0, 2.0, 4.0):
    bits = binarize(dpm_solve(bundle, 100, np.random.default_rng(13),
                              label=FAIL_CLASS, gamma=gamma, steps=25))
    frac = np.mean([row.tolist() == [1, 1, 0, 0] for row in bits])
    print(f"  gamma={gamma:3.1f}: {frac:.2f}")
