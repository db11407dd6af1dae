"""Output checks shared by the workloads.

Each check takes the run's outputs and returns (ok, detail).  The
references are computed by the benchmark itself (oracle.py) or follow
from definitions; the only library results they read are the ones under
test.  selftest.py shows that each check rejects a corrupted output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import oracle

FORMULAS = ("dstar", "ochiai", "barinel", "gp02")
EIG_TOL = 1e-8          # absolute, scaled by max(1, largest |eigenvalue|)


@dataclass
class Outputs:
    versions: list                  # faultlab Version objects, as loaded
    report: dict                    # parsed report.json
    capture: object                 # tracer.Capture of the last round
    cfg: object                     # faultlab RunConfig
    reports: list = field(default_factory=list)     # report.json bytes, every round
    replay: dict = field(default_factory=dict)      # the fresh process's round (run._replay)
    suites: dict = field(default_factory=dict)      # vid -> oracle.SuiteOracle

    def contexts(self) -> dict:
        return {vid: json.loads(text) for vid, text in self.report["config"]["contexts"].items()}


def _fail(detail):
    return False, detail


def coverage(out: Outputs):
    """Library coverage and verdicts equal the benchmark's interpreter's, the
    stored oracles equal the correct program's outputs, and every failing
    test covers the seeded statement."""
    for v in out.versions:
        lib, ref = out.capture.dataset[v.version_id], out.suites[v.version_id]
        if not ref.oracle_ok:
            return _fail(f"{v.version_id}: stored oracle differs from the correct program")
        if not (np.array_equal(lib.matrix, ref.matrix) and np.array_equal(lib.errors, ref.errors)):
            return _fail(f"{v.version_id}: coverage or verdicts differ from the reference interpreter")
        fails = lib.errors == 1
        if not fails.any() or not lib.matrix[fails, v.mutation.target - 1].all():
            return _fail(f"{v.version_id}: a failing test misses seeded S{v.mutation.target}")
    return True, f"{len(out.versions)} versions"


def scores(out: Outputs):
    """Recomputed formula scores reproduce every reported first rank."""
    by_id = {v.version_id: v for v in out.versions}
    contexts = out.contexts()
    context_space = out.cfg.train.eval_space == "context"
    checked = 0
    for entry in out.report["per_version"]:
        if entry["method"] not in FORMULAS:
            continue
        vid, scenario = entry["version"], entry["scenario"]
        if scenario == "origin":
            ref = out.suites[vid]
            matrix, errors = ref.matrix, ref.errors
        else:
            ds = out.capture.balanced[(vid, scenario)].dataset
            matrix, errors = ds.matrix, ds.errors
        faults = by_id[vid].faulty_statements
        if context_space:
            fused = contexts[vid]["stm_fusion"]
            matrix = matrix[:, [s - 1 for s in fused]]
            faults = {i + 1 for i, s in enumerate(fused) if s in faults}
        got = oracle.first_rank(oracle.formula_scores(entry["method"], matrix, errors), faults)
        if got != entry["first_rank"]:
            return _fail(f"{vid} {scenario}/{entry['method']}: rank {entry['first_rank']}, "
                         f"recomputed {got}")
        checked += 1
    return (checked > 0), f"{checked} ranks"


def slicing(out: Outputs):
    """StmSC equals the union of forward-propagation slices of the failing tests."""
    cap = out.cfg.train.fail_cap
    for vid, ctx in out.contexts().items():
        slices = out.suites[vid].slices
        expect = sorted(set().union(*(slices[:cap] if cap else slices)))
        if ctx["stm_sc"] != expect:
            return _fail(f"{vid}: stm_sc {ctx['stm_sc']} != reference {expect}")
    return True, f"{len(out.contexts())} contexts"


def eigenvalues(out: Outputs):
    """eigen_sym's eigenvalues match LAPACK's on the reference covariance."""
    worst = 0.0
    for v in out.versions:
        _, got = out.capture.eigen[v.version_id]
        x = out.suites[v.version_id].matrix.astype(float)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        want = np.linalg.eigvalsh(cov)[::-1]
        err = float(np.max(np.abs(np.asarray(got) - want)))
        worst = max(worst, err)
        if err > EIG_TOL * max(1.0, float(np.max(np.abs(want)))):
            return _fail(f"{v.version_id}: eigenvalue error {err:.3g}")
    return True, f"max error {worst:.2g}"


def fusion(out: Outputs):
    """stm_fusion is a subset of stm_sc with an even size of at least 4."""
    for vid, ctx in out.contexts().items():
        fused = ctx["stm_fusion"]
        if not set(fused) <= set(ctx["stm_sc"]) or len(fused) % 2 or len(fused) < 4:
            return _fail(f"{vid}: fusion {fused} against stm_sc {ctx['stm_sc']}")
    return True, f"{len(out.contexts())} contexts"


def balance(out: Outputs):
    """Rebalanced sets are balanced, and each route adds only what it may."""
    contexts = out.contexts()
    for (vid, scenario), aug in out.capture.balanced.items():
        base, ds = out.capture.dataset[vid], aug.dataset
        m = base.num_tests
        if ds.num_failing != ds.num_passing:
            return _fail(f"{vid} {scenario}: {ds.num_failing} fail vs {ds.num_passing} pass")
        if scenario == "undersample":
            keep = [i for i, e in enumerate(base.errors) if e == 1]
            kept = [i for i, e in enumerate(ds.errors) if e == 1]
            if (not np.array_equal(ds.matrix[kept], base.matrix[keep])
                    or [ds.test_ids[i] for i in kept] != [base.test_ids[i] for i in keep]):
                return _fail(f"{vid}: undersampling changed the failing rows")
            continue
        added, errs = ds.matrix[m:], ds.errors[m:]
        if not (np.array_equal(ds.matrix[:m], base.matrix) and np.all(errs == 1)):
            return _fail(f"{vid} {scenario}: original rows changed or added rows not failing")
        if scenario == "pcd":
            outside = np.ones(ds.num_statements, dtype=bool)
            outside[[s - 1 for s in contexts[vid]["stm_fusion"]]] = False
            if not np.isin(added, (0, 1)).all() or added[:, outside].any():
                return _fail(f"{vid}: synthetic rows not 0/1 inside the fused context")
        else:
            pool = {row.tobytes() for row in base.matrix[base.errors == 1]}
            if any(row.tobytes() not in pool for row in added):
                return _fail(f"{vid}: a resampled row is not a failing row")
    return bool(out.capture.balanced), f"{len(out.capture.balanced)} rebalanced sets"


def training(out: Outputs):
    """The mean loss of the last half of the epochs is below W, the zero-output loss."""
    worst = 0.0
    for vid, (losses, width) in out.capture.losses.items():
        if len(losses) < 2:
            return _fail(f"{vid}: only {len(losses)} epochs")
        half = losses[len(losses) // 2:]
        ratio = float(np.mean(half)) / width
        worst = max(worst, ratio)
        if ratio >= 1.0:
            return _fail(f"{vid}: last-{len(half)} mean loss is {ratio:.2f} W")
    return bool(out.capture.losses), f"worst {worst:.2f} W"


def report_cells(out: Outputs):
    """Top-1 <= Top-3 <= Top-5 <= versions and 1 <= MFR <= MAR <= N."""
    contexts = out.contexts()
    width = {v.version_id: (len(contexts[v.version_id]["stm_fusion"])
                            if out.cfg.train.eval_space == "context" else v.faulty.size)
             for v in out.versions}
    cells = 0
    for scenario, methods in out.report["results"].items():
        for method, c in methods.items():
            n = max(width[e["version"]] for e in out.report["per_version"]
                    if e["scenario"] == scenario and e["method"] == method)
            if not (c["top1"] <= c["top3"] <= c["top5"] <= c["versions"]
                    and 1 <= c["mfr"] <= c["mar"] <= n):
                return _fail(f"{scenario}/{method}: {c} (N={n})")
            cells += 1
    return cells > 0, f"{cells} cells"


def mlp_scores(out: Outputs):
    """mlpfl suspiciousness scores are finite and strictly inside (0, 1)."""
    got = [s for lists in out.capture.mlp_scores.values() for s in lists]
    for s in got:
        s = np.asarray(s)
        if not (np.all(np.isfinite(s)) and np.all((s > 0) & (s < 1))):
            return _fail("an mlpfl score is outside (0, 1)")
    return bool(got), f"{len(got)} score vectors"


def reproducible(out: Outputs):
    """report.json is byte-identical in every round of the run and in one
    more round run by a fresh process whose hash seed differs."""
    if out.replay.get("report") is None:
        return _fail(f"the fresh process failed: {out.replay.get('detail')}")
    if not out.replay["salted"]:
        return _fail("the fresh process ran with this process's hash seed")
    distinct = set(out.reports)
    if len(distinct) != 1:
        return _fail(f"{len(distinct)} distinct reports in {len(out.reports)} rounds")
    if out.replay["report"] not in distinct:
        return _fail("the fresh process wrote a different report")
    return True, (f"{len(out.reports)} rounds and a fresh process "
                  f"(PYTHONHASHSEED={out.replay['hashseed']}) agree")


def run_checks(names, out: Outputs) -> list[dict]:
    results = []
    for name in names:
        try:
            ok, detail = globals()[name](out)
        except Exception as exc:  # a crashing check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"check": name, "ok": bool(ok), "detail": detail})
    return results
