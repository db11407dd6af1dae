"""Spans and output capture around faultlab's public functions and methods.

The benchmark never edits the program.  It replaces module attributes and
class methods with wrappers for the duration of a run and restores them
afterwards.  Two uses share one mechanism:

* capture: a few coarse calls per version (coverage dataset, rebalanced
  sets, training losses, eigenvalues, MLP scores) hand their results to
  the output checks.  This is on in every run and costs microseconds per
  version.
* tracing: every layer boundary records a span (name, start, end, parent)
  in memory; the per-layer metrics are derived from the spans when the
  run ends.  This is on only in the separate traced round.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# (owner, attribute, span name).  Functions that pipeline.py imports by
# name are patched in the pipeline module, because that is where the call
# site looks them up.
TRACE_TARGETS = [
    ("faultlab.pipeline", "process_version", "pipeline.version"),
    ("faultlab.pipeline", "execute", "minilang.execute"),
    ("faultlab.pipeline", "build_spectra", "spectra.build"),
    ("faultlab.pipeline", "tally", "spectra.score"),
    ("faultlab.pipeline", "score", "spectra.score"),
    ("faultlab.pipeline", "rank", "spectra.score"),
    ("faultlab.pipeline", "default_criterion", "slicing.context"),
    ("faultlab.pipeline", "fault_context", "slicing.context"),
    ("faultlab.pipeline", "contribution_select", "context.pca"),
    ("faultlab.context", "eigen_sym", "context.eigen"),
    ("faultlab.pipeline", "fuse", "context.fuse"),
    ("faultlab.pipeline", "context_dump", "context.fuse"),
    ("faultlab.pipeline", "train", "diffusion.train"),
    ("faultlab.diffusion", "train_step", "diffusion.train_step"),
    ("faultlab.augment", "dpm_solve", "diffusion.sample"),
    ("faultlab.diffusion", "guided_eps", "diffusion.guided_eps"),
    ("faultlab.augment", "generate_until_balanced", "augment.balance"),
    ("faultlab.augment", "undersample", "augment.baseline"),
    ("faultlab.augment", "resample", "augment.baseline"),
    ("faultlab.pipeline", "train_mlpfl", "dlfl.fit"),
    ("faultlab.pipeline", "virtual_suspiciousness", "dlfl.score"),
    ("faultlab.pipeline", "summarize", "metrics.summarize"),
    ("faultlab.pipeline", "emit_report", "report.emit"),
    ("faultlab.corpus", "make_version", "corpus.build"),
    ("faultlab.neural.denoiser.Denoiser", "__call__", "neural.forward"),
    ("faultlab.neural.denoiser.Denoiser", "predict", "neural.predict"),
    ("faultlab.neural.layers.Conv1d", "__call__", "neural.conv1d"),
    ("faultlab.neural.layers.GroupNorm", "__call__", "neural.groupnorm"),
    ("faultlab.neural.layers.Attention", "__call__", "neural.attention"),
    ("faultlab.neural.layers.ResidualBlock", "__call__", "neural.resblock"),
    ("faultlab.neural.tensor.Tensor", "backward", "neural.backward"),
    ("faultlab.neural.optim.AdamW", "step", "neural.adamw"),
]

# Spans that belong to the pipeline driver itself; every other top-level
# span is a layer call, and pipeline.self_s is what they leave uncovered.
DRIVER_SPANS = {"pipeline.version"}


def _resolve(path: str):
    """A module, or a class when the last dotted part is capitalised."""
    module, _, last = path.rpartition(".")
    if last[:1].isupper():
        return getattr(importlib.import_module(module), last)
    return importlib.import_module(path)


class Capture:
    """Results of coarse calls, keyed by the version being processed."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.vid = None
        self.dataset = {}        # vid -> origin CoverageDataset
        self.balanced = {}       # (vid, scenario) -> AugmentedDataset
        self.losses = {}         # vid -> (losses, width)
        self.eigen = {}          # vid -> (covariance, eigenvalues)
        self.mlp_scores = defaultdict(list)  # vid -> [scores]

    def hooks(self):
        return {
            # wrapped only so that the wrapper records the running version
            ("faultlab.pipeline", "process_version"):
                lambda a, k, r: None,
            ("faultlab.pipeline", "build_spectra"):
                lambda a, k, r: self.dataset.__setitem__(self.vid, r),
            ("faultlab.pipeline", "train"):
                lambda a, k, r: self.losses.__setitem__(self.vid, (list(r.losses), r.width)),
            ("faultlab.augment", "generate_until_balanced"):
                lambda a, k, r: self.balanced.__setitem__((self.vid, "pcd"), r),
            ("faultlab.augment", "undersample"):
                lambda a, k, r: self.balanced.__setitem__((self.vid, "undersample"), r),
            ("faultlab.augment", "resample"):
                lambda a, k, r: self.balanced.__setitem__((self.vid, "resample"), r),
            ("faultlab.context", "eigen_sym"):
                lambda a, k, r: self.eigen.__setitem__(self.vid, (a[0], r[0])),
            ("faultlab.pipeline", "virtual_suspiciousness"):
                lambda a, k, r: self.mlp_scores[self.vid].append(r),
        }


class Hooks:
    """Installs wrappers; those installed with `trace` also record spans."""

    def __init__(self, capture: Capture):
        self.capture = capture
        self.spans: list[list] = []      # [name, start, end, parent, extra]
        self.stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, trace: bool):
        hooks = self.capture.hooks()
        targets = {(o, a): n for o, a, n in TRACE_TARGETS} if trace else {}
        keys = set(targets) | set(hooks)
        for owner_path, attr in sorted(keys):
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, targets.get((owner_path, attr)),
                                            hooks.get((owner_path, attr)),
                                            attr == "process_version"))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span_name, hook, sets_version):
        hooks = self

        def wrapper(*args, **kwargs):
            if sets_version:
                hooks.capture.vid = args[0].version_id
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(hooks.spans)
                parent = hooks.stack[-1] if hooks.stack else -1
                span = [span_name, time.perf_counter(), 0.0, parent, None]
                hooks.spans.append(span)
                hooks.stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    hooks.stack.pop()
                    span[2] = time.perf_counter()
                span[4] = _extra(span_name, args, kwargs, result)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, extra]) + "\n")


def _extra(name, args, kwargs, result):
    """Counts recorded at the boundary where the work happens."""
    if name == "minilang.execute":
        return len(result.trace)
    if name == "slicing.context" and isinstance(args[0], list):
        return sum(len(r.data_edges) + len(r.control_edges) for r, _ in args[0])
    if name == "context.eigen":
        return int((args[0].diagonal() > 0).sum())
    if name == "context.fuse" and hasattr(result, "stm_fusion"):
        return len(result.stm_fusion)
    if name == "diffusion.sample":
        return int(args[1])
    if name == "augment.balance":
        return len(result.synthetic_rows)
    if name == "report.emit":
        return sum(p.stat().st_size for p in result)
    return None


def layer_metrics(spans: list[list], round_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round (spans of that round only)."""
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in by[name])

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    def mean_ms(name, ancestor=None, scale=1e3):
        picked = [dur(i) for i in by[name] if ancestor is None or under(i, ancestor)]
        return scale * sum(picked) / len(picked) if picked else 0.0

    def extras(name):
        return [spans[i][4] for i in by[name] if spans[i][4] is not None]

    occurrences = sum(extras("minilang.execute"))
    execute_s = total("minilang.execute")
    steps = len(by["diffusion.train_step"])
    sample_s = total("diffusion.sample")
    drawn = sum(extras("diffusion.sample"))
    kept = sum(extras("augment.balance"))
    fit_steps = sum(1 for i in by["neural.adamw"] if under(i, "dlfl.fit"))
    widths = extras("context.eigen")
    fused = extras("context.fuse")
    versions = sorted(dur(i) for i in by["pipeline.version"])
    top = [i for i, s in enumerate(spans) if s[3] < 0 and s[0] not in DRIVER_SPANS]
    top += [i for i, s in enumerate(spans)
            if s[3] >= 0 and spans[s[3]][0] in DRIVER_SPANS and s[0] not in DRIVER_SPANS]
    layer_s = sum(dur(i) for i in top)

    m = {
        "minilang.execute_s": (execute_s, "s"),
        "minilang.occurrences": (occurrences, "count"),
        "minilang.us_per_occurrence": (1e6 * execute_s / occurrences if occurrences else 0.0, "us"),
        "spectra.build_s": (total("spectra.build"), "s"),
        "spectra.score_s": (total("spectra.score"), "s"),
        "slicing.context_s": (total("slicing.context"), "s"),
        "slicing.edges": (sum(extras("slicing.context")), "count"),
        "context.pca_s": (total("context.pca"), "s"),
        "context.fuse_s": (total("context.fuse"), "s"),
        "context.pca_width": (statistics.fmean(widths) if widths else 0.0, "count"),
        "context.fused_width": (statistics.fmean(fused) if fused else 0.0, "count"),
        "neural.forward_ms": (mean_ms("neural.forward", "diffusion.train_step"), "ms"),
        "neural.backward_ms": (mean_ms("neural.backward", "diffusion.train_step"), "ms"),
        "neural.adamw_ms": (mean_ms("neural.adamw", "diffusion.train_step"), "ms"),
        "neural.predict_ms": (mean_ms("neural.predict"), "ms"),
        "neural.conv1d_us": (mean_ms("neural.conv1d", scale=1e6), "us"),
        "neural.groupnorm_us": (mean_ms("neural.groupnorm", scale=1e6), "us"),
        "neural.attention_us": (mean_ms("neural.attention", scale=1e6), "us"),
        "neural.resblock_us": (mean_ms("neural.resblock", scale=1e6), "us"),
        "diffusion.train_s": (total("diffusion.train"), "s"),
        "diffusion.train_steps": (steps, "count"),
        "diffusion.step_ms": (mean_ms("diffusion.train_step"), "ms"),
        "diffusion.sample_s": (sample_s, "s"),
        "diffusion.model_evals": (len(by["diffusion.guided_eps"]), "count"),
        "diffusion.rows_per_s": (drawn / sample_s if sample_s else 0.0, "1/s"),
        "augment.balance_s": (total("augment.balance"), "s"),
        "augment.rounds": (len(by["diffusion.sample"]), "count"),
        "augment.rows_drawn": (drawn, "count"),
        "augment.kept_ratio": (kept / drawn if drawn else 0.0, "ratio"),
        "augment.baseline_s": (total("augment.baseline"), "s"),
        "dlfl.fit_s": (total("dlfl.fit"), "s"),
        "dlfl.fits": (len(by["dlfl.fit"]), "count"),
        "dlfl.step_ms": (1e3 * total("dlfl.fit") / fit_steps if fit_steps else 0.0, "ms"),
        "dlfl.score_s": (total("dlfl.score"), "s"),
        "metrics.summarize_s": (total("metrics.summarize"), "s"),
        "pipeline.self_s": (round_s - layer_s, "s"),
        "pipeline.version_s_p50": (statistics.median(versions) if versions else 0.0, "s"),
        "pipeline.version_s_max": (versions[-1] if versions else 0.0, "s"),
        "report.emit_s": (total("report.emit"), "s"),
        "report.bytes": (sum(extras("report.emit")), "bytes"),
    }
    return m
