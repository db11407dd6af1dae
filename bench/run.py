"""faultlab benchmark: two workloads through `run_pipeline` + `emit_report`.

    python3 bench/run.py --workload pcd-imbalanced --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --smoke          # every workload, reduced, all checks

One run: a child process (prepare.py) makes the workload's inputs from
the seed.  This process then times the program's set-up once, cold
(building the versions, which runs the reference program for every
oracle, then writing and reloading the corpus), repeats identical rounds
of `run_pipeline` followed by `emit_report` for about `--seconds`, has
replay.py run one more round in a fresh process with another hash seed,
and checks the outputs.  With `--trace 0` the last
stdout line holds the end-to-end metrics (`setup_s`, median round
`run_s`, `peak_rss_mb`); with `--trace 1` one more round runs with spans
at every layer boundary and the line holds the per-layer metrics.  A
result file with provenance goes to bench/out/results/.
"""

import time

T0 = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:       # before numpy loads its BLAS
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120
HASH_PROBE = "faultlab"     # replay.py prints its hash() of this

if not (SRC / "faultlab" / "__init__.py").is_file():
    sys.exit(f"error: no faultlab sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import numpy.random  # numpy loads it lazily: an import, not set-up work

import faultlab
from faultlab import pipeline

if Path(faultlab.__file__).resolve().parent != SRC / "faultlab":
    sys.exit(f"error: imported faultlab from {faultlab.__file__}, not from {SRC}")

import checks
import oracle
import tracer
import wl_analysis_wide
import wl_pcd_imbalanced

WORKLOADS = {wl.NAME: wl for wl in (wl_pcd_imbalanced, wl_analysis_wide)}
IMPORT_S = time.perf_counter() - T0


def provenance() -> dict:
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def _round(cfg, versions, report_dir: Path):
    """One timed round: first version processed to report files written."""
    c0, t0 = _cpu(), time.perf_counter()
    report = pipeline.run_pipeline(cfg, versions)
    pipeline.emit_report(report, report_dir)
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    return wall, cpu, (report_dir / "report.json").read_bytes()


def _child(script: str, args: list, env=None) -> subprocess.CompletedProcess:
    """Run another of the benchmark's scripts in a fresh interpreter and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / script), *map(str, args)]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def _prepare(wl, seed: int, smoke: bool, path: Path):
    """The workload's inputs, made by prepare.py so that this process's set-up is cold."""
    proc = _child("prepare.py", [wl.NAME, seed, path] + (["--smoke"] if smoke else []))
    if proc.returncode != 0:
        raise RuntimeError(f"prepare.py failed:\n{proc.stderr.strip()}")
    return pickle.loads(path.read_bytes())


def _replay(wl, seed: int, smoke: bool, corpus_dir: str, report_dir: Path) -> dict:
    """One more round, by replay.py in a fresh process with another hash seed."""
    own = os.environ.get("PYTHONHASHSEED", "")
    env = dict(os.environ, PYTHONHASHSEED=str(int(own) + 1 if own.isdigit() else 1))
    try:
        proc = _child("replay.py", [wl.NAME, seed, corpus_dir, report_dir]
                      + (["--smoke"] if smoke else []), env)
    except subprocess.TimeoutExpired:
        return {"report": None, "detail": f"no result within {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"report": None,
                "detail": (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]}
    return {"report": (report_dir / "report.json").read_bytes(),
            "salted": int(proc.stdout.split()[-1]) != hash(HASH_PROBE),
            "hashseed": env["PYTHONHASHSEED"]}


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work = OUT / f"{wl.NAME}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus_dir = str((work / "corpus").relative_to(ROOT))
    capture = tracer.Capture()
    hooks = tracer.Hooks(capture)

    inputs = _prepare(wl, seed, smoke, work / "inputs.pickle")
    if trace:
        hooks.install(trace=True)
    gc.collect()          # leave the input generation's garbage out of the timings
    t0 = time.perf_counter()
    versions = wl.setup(inputs, seed, str(ROOT / corpus_dir))
    setup_s = time.perf_counter() - t0
    setup_spans = hooks.spans
    hooks.uninstall()
    hooks.spans = []

    cfg = wl.config(corpus_dir, seed, smoke)
    walls, cpus, reports = [], [], []
    hooks.install(trace=False)
    try:
        while (len(walls) < MIN_ROUNDS
               or sum(walls) + statistics.median(walls) <= seconds):
            capture.clear()
            gc.collect()
            wall, cpu, raw = _round(cfg, versions, work / "report")
            walls.append(wall)
            cpus.append(cpu)
            reports.append(raw)
    finally:
        hooks.uninstall()
    run_s = statistics.median(walls)

    layer = {}
    if trace:
        capture.clear()
        gc.collect()
        hooks.install(trace=True)
        try:
            traced_s, _, raw = _round(cfg, versions, work / "report")
        finally:
            hooks.uninstall()
        reports.append(raw)
        hooks.write(work / "trace.jsonl")
        layer = tracer.layer_metrics(hooks.spans, traced_s)
        layer["corpus.build_s"] = (sum(e - s for n, s, e, _, _ in setup_spans
                                       if n == "corpus.build"), "s")
        layer["process.import_s"] = (IMPORT_S, "s")
        layer["process.cpu_s"] = (statistics.median(cpus), "s")
        layer["trace.overhead_s"] = (traced_s - run_s, "s")

    replay = _replay(wl, seed, smoke, corpus_dir, work / "replay")
    out = checks.Outputs(versions=versions, report=json.loads(reports[-1]), capture=capture,
                         cfg=cfg, reports=reports, replay=replay,
                         suites={v.version_id: oracle.suite_oracle(v) for v in versions})
    verdicts = checks.run_checks(wl.CHECKS, out)

    n_rounds = len(reports) + 1                 # the replay is one more round
    per_round = len(versions) * len(cfg.scenarios)
    errors = json.loads(reports[-1])["errors"]
    attempted = n_rounds * per_round + len(verdicts)
    failed = (n_rounds * len(errors) * len(cfg.scenarios)
              + sum(not v["ok"] for v in verdicts))
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "run_s": {"value": run_s, "unit": "s"},
                   "peak_rss_mb": {"value": usage / 1024.0, "unit": "MB"}}
    result = {
        "correct": all(v["ok"] for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=wl.NAME, seed=seed, seconds=seconds, trace=int(trace),
                  smoke=smoke, rounds_s=walls, rounds_cpu_s=cpus, setup_s=setup_s,
                  run_s=run_s, report_sha256=hashlib.sha256(reports[-1]).hexdigest(),
                  report_errors=errors, checks=verdicts, provenance=provenance())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.NAME}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    return result, verdicts, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="faultlab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at reduced size, traced, with all checks")
    args = parser.parse_args(argv)
    if args.smoke:
        ok = True
        for wl in WORKLOADS.values():
            t = time.perf_counter()
            result, verdicts, _ = run_workload(wl, args.seed, 0.0, True, True)
            ok &= result["correct"] and result["failed"] == 0
            bad = [v for v in verdicts if not v["ok"]]
            print(f"{wl.NAME}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {time.perf_counter() - t:.1f}s"
                  + "".join(f"\n  FAILED {v['check']}: {v['detail']}" for v in bad))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, _, _ = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
