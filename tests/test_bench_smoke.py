"""The benchmark's smoke run: every workload, reduced, with all its checks.

The benchmark wraps library functions by name (bench/tracer.py) and reads
their arguments and results, so renaming one of them or changing its
signature fails here rather than at the next benchmark run.  The neural
spans are also checked to be recorded by a train step and a sampling call.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from faultlab import diffusion
from faultlab.neural import AdamW, Denoiser

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics a workload cannot reach, so they read 0 there.
# analysis-wide runs no diffusion and no neural localizer; pcd-imbalanced
# has no undersample or resample scenario.
UNREACHED = {
    "analysis-wide": {"augment.balance_s", "augment.kept_ratio", "augment.rounds",
                      "augment.rows_drawn"},
    "pcd-imbalanced": {"augment.baseline_s"},
}
UNREACHED_PREFIXES = {"analysis-wide": ("diffusion.", "neural.", "dlfl.")}


def test_bench_smoke_passes():
    start = time.time()
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
    # Every declared per-layer metric is reported, and each one a workload
    # reaches is non-zero: a library change that took a traced call off the
    # run path, or changed what its wrapper reads, would read 0.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    for workload in (w["name"] for w in declared["workloads"]):
        path = ROOT / "bench" / "out" / "results" / f"{workload}-seed1-trace1-smoke.json"
        assert path.stat().st_mtime >= start, f"{path} was not written by this run"
        metrics = json.loads(path.read_text())["metrics"]
        assert not set(names) - set(metrics), (workload, sorted(set(names) - set(metrics)))
        unreached = {n for n in names if n in UNREACHED[workload]
                     or n.startswith(UNREACHED_PREFIXES.get(workload, ()))}
        zero = {n for n in names if metrics[n]["value"] == 0}
        assert zero == unreached, (workload, sorted(zero ^ unreached))


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_neural_spans_stay_on_the_run_path():
    # The smoke run only proves that the traced names resolve.  A per-layer
    # metric whose function left the run path would read 0, so one train
    # step and one guided prediction must record a span for each of them.
    tracer = _tracer()
    wanted = {name for _, _, name in tracer.TRACE_TARGETS if name.startswith("neural.")}
    wanted |= {"diffusion.train_step", "diffusion.guided_eps"}
    model = Denoiser(seed=0, base=4, groups=2, emb_dim=8)
    opt = AdamW(model.named_params(), lr=1e-2)
    rng = np.random.default_rng(0)
    rows = np.sign(rng.normal(size=(4, 8)))
    hooks = tracer.Hooks(tracer.Capture())
    hooks.install(trace=True)
    try:
        diffusion.train_step(model, opt, rows, np.array([0, 1, 0, 1]),
                             diffusion.make_schedule(50, 1e-4, 0.02), rng)
        diffusion.guided_eps(model, rows, np.full(4, 7), np.ones(4, dtype=int), 2.0)
    finally:
        hooks.uninstall()
    recorded = {span[0] for span in hooks.spans}
    assert wanted <= recorded, sorted(wanted - recorded)
