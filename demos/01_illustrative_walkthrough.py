"""
Walkthrough: from a seeded fault to an improved ranking
=======================================================

A 16-statement program carries a wrong constant at S_3.  Its 6-test suite
is imbalanced (4 passing, 2 failing).  This script walks the whole
pipeline on that one version and shows the suspiciousness ranking before
and after synthetic failing rows are added.
"""

import numpy as np

from faultlab.augment import generate_until_balanced
from faultlab.context import contribution_select, fuse
from faultlab.corpus import golden_template, make_version
from faultlab.diffusion import TrainConfig, train
from faultlab.minilang import execute
from faultlab.slicing import default_criterion, dynamic_slice, fault_context
from faultlab.spectra import build_spectra, rank, score, tally

version = make_version("illustrative", golden_template(), None)
print("=== program (faulty variant) ===")
print(version.faulty.source)

# Execute the suite against the faulty program; oracles come from the
# correct program.
records = [
    execute(version.faulty, t.inputs, t.oracle, test_id=f"t{i + 1}")
    for i, t in enumerate(version.suite)
]
dataset = build_spectra(records)
print("=== coverage matrix (rows = tests, last col = verdict) ===")
for row, err, tid in zip(dataset.matrix, dataset.errors, dataset.test_ids):
    print(f"  {tid}: {''.join(map(str, row))}  {'FAIL' if err else 'pass'}")

# Baseline ranking.
ranked_origin = rank(score("gp02", tally(dataset)))
fault = version.mutation.target
print(f"\norigin gp02 ranking: {ranked_origin.order}")
print(f"faulty statement S_{fault} sits at rank {ranked_origin.rank_of(fault)}")

# Semantic context: one slice per failing test, united.
failing = [r for r in records if r.failing]
for r in failing:
    crit = default_criterion(r)
    sl = dynamic_slice(r, crit)
    print(f"\n{r.test_id}: wrong output at S_{crit.output_stm} "
          f"({set(crit.output_vars)}), slice = {sorted(sl)}")
semantic = fault_context([(r, default_criterion(r)) for r in failing])
print(f"fault semantic context: {semantic.stm_sc}")

# Statistical context and fusion.
statistical = contribution_select(dataset.matrix)
print(f"statistical ordering: {statistical.stm_pca} (m={statistical.m})")
fused = fuse(semantic.stm_sc, statistical.stm_pca, alpha=1.0)
print(f"fused context: {fused.stm_fusion} (width {fused.target_dim})")

# Train the conditional generator on the fused columns and rebalance.
cfg = TrainConfig(epochs=2000)
rows = dataset.matrix[:, [s - 1 for s in fused.stm_fusion]]
bundle = train(rows, dataset.errors, cfg, rng=np.random.default_rng(7))
print(f"\ntrained for {len(bundle.losses)} epochs, "
      f"final loss {np.mean(bundle.losses[-50:]):.3f}")

augmented = generate_until_balanced(bundle, dataset, fused, cfg,
                                    np.random.default_rng(1))
print(f"generated {len(augmented.synthetic_rows)} synthetic failing rows:")
for row in augmented.synthetic_rows:
    print(f"  {''.join(map(str, row))}")

ranked_pcd = rank(score("gp02", tally(augmented.dataset)))
print(f"\nbalanced gp02 ranking: {ranked_pcd.order}")
print(f"faulty statement S_{fault}: rank {ranked_origin.rank_of(fault)} -> "
      f"{ranked_pcd.rank_of(fault)}")
