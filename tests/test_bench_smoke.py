"""The benchmark's smoke run: every workload, reduced, with all its checks.

The benchmark wraps library functions by name (bench/tracer.py) and reads
their arguments and results, so renaming one of them or changing its
signature fails here rather than at the next benchmark run.  The neural
spans are also checked to be recorded by a train step and a sampling call.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from faultlab import diffusion
from faultlab.neural import AdamW, Denoiser

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]


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
        diffusion.train_step(model, opt, rows, np.array([0, 1, 0, 1]), diffusion.TrainConfig(),
                             diffusion.make_schedule(50, 1e-4, 0.02), rng)
        diffusion.guided_eps(model, rows, np.full(4, 7), np.ones(4, dtype=int), 2.0)
    finally:
        hooks.uninstall()
    recorded = {span[0] for span in hooks.spans}
    assert wanted <= recorded, sorted(wanted - recorded)
