"""
Corpus experiment: augmentation versus the sampling baselines
=============================================================

Generates a small seeded-fault corpus, runs the origin / pcd /
undersample / resample scenarios with all four suspiciousness formulas,
and prints the aggregate table plus per-version GP02 movement.

Roughly two minutes of compute; shrink COUNT for a quicker look.
"""

import time

from faultlab.corpus import generate_corpus
from faultlab.diffusion import TrainConfig
from faultlab.metrics import render_table
from faultlab.pipeline import RunConfig, run_pipeline

COUNT = 12
SEED = 7

print(f"generating {COUNT} seeded-fault versions (seed {SEED})...")
versions = generate_corpus(COUNT, seed=SEED)
for v in versions:
    print(f"  {v.version_id:<24} {v.program.size:>2} statements, "
          f"{len(v.suite)} tests, fault at S_{v.mutation.target}")

cfg = RunConfig(
    scenarios=("origin", "pcd", "undersample", "resample"),
    methods=("dstar", "ochiai", "barinel", "gp02"),
    seed=SEED,
    train=TrainConfig(lr=3e-4, epochs=2000),
)

start = time.time()
report = run_pipeline(cfg, versions=versions)
print(f"\npipeline finished in {time.time() - start:.0f}s "
      f"({len(report.errors)} version errors)\n")
print(render_table(report))

print("per-version GP02 rank of the faulty statement (origin -> pcd):")
per = {}
for row in report.per_version:
    per.setdefault(row["version"], {})[(row["scenario"], row["method"])] = \
        row["first_rank"]
improved = 0
for vid in sorted(per):
    origin = per[vid][("origin", "gp02")]
    pcd = per[vid][("pcd", "gp02")]
    marker = "better" if pcd < origin else ("same" if pcd == origin else "worse")
    improved += pcd < origin
    print(f"  {vid:<24} {origin:>3} -> {pcd:<3} {marker}")
print(f"\nstrict improvements: {improved}/{len(per)}")
