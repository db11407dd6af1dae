"""Self-test of the output checks: each must reject a corrupted output.

    python3 bench/selftest.py

Runs every workload at smoke size, requires every check to pass on the
genuine outputs, then corrupts one output at a time and requires the
check that guards it to fail.  Exits non-zero if any check passes a
corrupted output or fails a genuine one.
"""

import copy
import json
import sys

import run  # pins thread pools and puts the checkout's src/ on sys.path

import checks


def _first_context(out):
    vid = sorted(out.report["config"]["contexts"])[0]
    return vid, json.loads(out.report["config"]["contexts"][vid])


def _set_context(out, vid, ctx):
    out.report["config"]["contexts"][vid] = json.dumps(ctx)


def corrupt_coverage(out):
    v = out.versions[0]
    ds = out.capture.dataset[v.version_id]
    row = int(list(ds.errors).index(1))
    ds.matrix[row, v.mutation.target - 1] = 0


def corrupt_scores(out):
    entry = next(e for e in out.report["per_version"] if e["method"] in checks.FORMULAS)
    entry["first_rank"] += 1


def corrupt_slicing(out):
    vid, ctx = _first_context(out)
    ctx["stm_sc"] = ctx["stm_sc"][:-1]
    _set_context(out, vid, ctx)


def corrupt_eigenvalues(out):
    vid = out.versions[0].version_id
    cov, vals = out.capture.eigen[vid]
    vals = vals.copy()
    vals[0] += 1e-6
    out.capture.eigen[vid] = (cov, vals)


def corrupt_fusion(out):
    vid, ctx = _first_context(out)
    ctx["stm_fusion"] = ctx["stm_fusion"] + [ctx["stm_sc"][-1] + 1]
    _set_context(out, vid, ctx)


def corrupt_training(out):
    vid, (losses, width) = next(iter(out.capture.losses.items()))
    out.capture.losses[vid] = ([float(width)] * len(losses), width)


def corrupt_report_cells(out):
    cell = next(iter(next(iter(out.report["results"].values())).values()))
    cell["top1"] = cell["top3"] + 1


def corrupt_mlp_scores(out):
    vid, scores = next(iter(out.capture.mlp_scores.items()))
    scores[0] = scores[0].copy()
    scores[0][0] = 1.0


def _reproducible_corruptions(out):
    """A round that differs in this process, a fresh process that wrote
    another report, and a fresh process that ran with this one's hash seed."""
    def rounds(o):
        o.reports.append(o.reports[-1] + b" ")

    def process(o):
        o.replay["report"] = o.replay["report"] + b" "

    def salt(o):
        o.replay["salted"] = False
    return [("reproducible/rounds", rounds), ("reproducible/process", process),
            ("reproducible/hashseed", salt)]


def _balance_corruptions(out):
    """One corruption per rebalancing route present in the outputs."""
    def labels(key):
        def f(o):
            ds = o.capture.balanced[key].dataset
            ds.errors[-1] = 1 - ds.errors[-1]
        return f

    def route(key):
        vid, scenario = key

        def f(o):
            ds = o.capture.balanced[key].dataset
            m = o.capture.dataset[vid].num_tests
            if scenario == "pcd":
                ctx = json.loads(o.report["config"]["contexts"][vid])
                outside = next(j for j in range(ds.num_statements)
                               if j + 1 not in ctx["stm_fusion"])
                ds.matrix[m, outside] = 1
            elif scenario == "resample":
                ds.matrix[m] = 1 - ds.matrix[m]
            else:
                row = int(list(ds.errors).index(1))
                ds.matrix[row] = 1 - ds.matrix[row]
        return f

    seen = {}
    for key in out.capture.balanced:
        seen.setdefault(key[1], key)
    first = next(iter(seen.values()))
    return [(f"balance/{s}", route(k)) for s, k in seen.items()] + [("balance/labels", labels(first))]


def main() -> int:
    bad = 0
    for wl in run.WORKLOADS.values():
        _, verdicts, out = run.run_workload(wl, 1, 0.0, False, True)
        genuine = [v for v in verdicts if not v["ok"]]
        for v in genuine:
            print(f"FAIL {wl.NAME}: genuine output rejected by {v['check']}: {v['detail']}")
        bad += len(genuine)
        cases = []
        for name in wl.CHECKS:
            if name in ("balance", "reproducible"):
                special = globals()[f"_{name}_corruptions"](out)
                cases += [(name, label, f) for label, f in special]
            else:
                cases.append((name, name, globals()[f"corrupt_{name}"]))
        for name, label, corrupt in cases:
            broken = copy.deepcopy(out)
            corrupt(broken)
            ok, detail = getattr(checks, name)(broken)
            print(f"{'FAIL' if ok else 'ok  '} {wl.NAME}: {label} corrupted -> "
                  f"{'accepted' if ok else 'rejected: ' + detail}")
            bad += ok
    print("selftest", "passed" if bad == 0 else f"failed ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
