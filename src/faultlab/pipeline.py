"""Batch driver: execute suites, build contexts, augment, score, report.

One version's failure never aborts the batch; it is recorded in the
report's error list and the remaining versions continue.  All randomness
derives from the root seed through named substreams, so a fixed
configuration reproduces its reports byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import augment as aug_mod
from .context import contribution_select, context_dump, fuse
from .corpus import Version, load_version, read_manifest
from .diffusion import MAX_STEPS, TrainConfig, make_schedule, train
from .dlfl import MlpFlConfig, train_mlpfl, virtual_suspiciousness
from .errors import FaultlabError, InvalidConfig, InvalidRange, IoError
from .metrics import MetricsReport, VersionResult, render_table, rimp_csv, summarize
from .minilang import execute
from .slicing import default_criterion, fault_context
from .spectra import FORMULAS, CoverageDataset, build_spectra, rank, score, tally

SPECTRUM_METHODS = FORMULAS
ALL_METHODS = SPECTRUM_METHODS + ("mlpfl",)


@dataclass
class RunConfig:
    corpus: str = "corpus"
    output: str = "runs"
    scenarios: tuple[str, ...] = ("origin", "pcd")
    methods: tuple[str, ...] = SPECTRUM_METHODS
    seed: int = 7
    tie: str = "ordinal"
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        """Reject every out-of-range knob at once, before the first version runs."""
        t = self.train
        problems = [f"unknown scenario {s!r}" for s in self.scenarios
                    if s not in aug_mod.SCENARIOS]
        problems += [f"unknown method {m!r}" for m in self.methods if m not in ALL_METHODS]
        for ok, what in (
            (self.scenarios, "scenario set must be non-empty"),
            (self.methods, "method set must be non-empty"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.tie in ("ordinal", "best"), "tie must be 'ordinal' or 'best'"),
            (t.eval_space in ("full", "context"), "eval_space must be 'full' or 'context'"),
            (t.op == "adamw", f"op must be 'adamw', got {t.op!r}"),
            (math.isfinite(t.alpha), f"alpha must be finite, got {t.alpha}"),
            (t.alpha >= 0, f"alpha must be >= 0, got {t.alpha}"),
            (math.isfinite(t.lr) and t.lr > 0, f"lr must be finite and > 0, got {t.lr}"),
            (math.isfinite(t.gamma) and t.gamma >= 0,
             f"gamma must be finite and >= 0, got {t.gamma}"),
            (t.steps >= 2, f"steps must be >= 2, got {t.steps}"),
            (t.steps <= MAX_STEPS, f"steps must be <= {MAX_STEPS}, got {t.steps}"),
            (0 < t.beta1 <= t.betaT < 1,
             f"need 0 < beta1 <= betaT < 1, got {t.beta1}, {t.betaT}"),
            (t.epochs >= 1, f"epochs must be >= 1, got {t.epochs}"),
            (t.sample_steps >= 1, f"sample_steps must be >= 1, got {t.sample_steps}"),
            (t.sample_order in (1, 2), f"sample_order must be 1 or 2, got {t.sample_order}"),
            (t.fail_cap is None or t.fail_cap >= 1, f"fail_cap must be >= 1, got {t.fail_cap}"),
        ):
            if not ok:
                problems.append(what)
        # the schedule is built only for steps and betas already in range
        if 2 <= t.steps <= MAX_STEPS and 0 < t.beta1 <= t.betaT < 1:
            try:
                make_schedule(t.steps, t.beta1, t.betaT)
            except InvalidRange as exc:
                problems.append(str(exc))
        if problems:
            raise InvalidConfig("; ".join(problems))


@dataclass(frozen=True)
class Knob:
    """One user-settable run setting: a `run` flag, a config-file key and,
    when reported, a `report.config` key, all named by the field."""
    owner: type                  # RunConfig or TrainConfig
    field: str
    help: str | None = None
    spelled: str | None = None   # the flag, where it is not --field with dashes
    reported: bool = True

    @property
    def flag(self) -> str:
        return self.spelled or "--" + self.field.replace("_", "-")

    def target(self, cfg: RunConfig):
        return cfg if self.owner is RunConfig else cfg.train


# In report.config order.  Only these fields are settable from the command
# line; the other TrainConfig fields stay library-only.
KNOBS = (
    Knob(RunConfig, "corpus"),
    Knob(RunConfig, "output", spelled="--out", reported=False),
    Knob(RunConfig, "scenarios"),
    Knob(RunConfig, "methods"),
    Knob(RunConfig, "seed"),
    Knob(TrainConfig, "eval_space"),
    Knob(RunConfig, "tie"),
    Knob(TrainConfig, "steps", help="diffusion steps"),
    Knob(TrainConfig, "lr"),
    Knob(TrainConfig, "op"),
    Knob(TrainConfig, "beta1"),
    Knob(TrainConfig, "betaT"),
    Knob(TrainConfig, "alpha", help="fusion ratio"),
    Knob(TrainConfig, "gamma", help="guidance scale"),
    Knob(TrainConfig, "sample_steps"),
    Knob(TrainConfig, "epochs"),
    Knob(TrainConfig, "sample_order"),
    Knob(TrainConfig, "reject_empty"),
    Knob(TrainConfig, "fail_cap"),
)


def _substream(root_seed: int, *key) -> np.random.Generator:
    # Python's hash() is salted per process; derive substream keys from a
    # stable digest so identical configs reproduce identical runs.
    digest = hashlib.sha256(repr(key).encode()).digest()
    mapped = tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=mapped))


def process_version(version: Version, cfg: RunConfig) -> tuple[dict, set[int], str | None]:
    """One version's pass: coverage, the principal context, rebalancing and
    the ranking of each (scenario, method).

    Returns the rankings, the fault statements and the context dump (None
    when no scenario needs the context).  In the context space the rankings
    and the faults number the fused columns from 1.  A fault outside the
    fused context cannot be ranked there, so such a version returns right
    after its context, with no rankings and no faults, and stays out of
    the aggregates.
    """
    stream = partial(_substream, cfg.seed, version.version_id)
    records = [
        execute(version.faulty, t.inputs, t.oracle, test_id=f"t{i + 1}")
        for i, t in enumerate(version.suite)
    ]
    dataset = build_spectra(records)
    faults = version.faulty_statements
    in_context = cfg.train.eval_space == "context"
    dump = None
    if "pcd" in cfg.scenarios or in_context:
        failing = [r for r in records if r.failing][:cfg.train.fail_cap]
        stm_sc = fault_context([(r, default_criterion(r)) for r in failing])
        statistical = contribution_select(dataset.matrix)
        fused = fuse(stm_sc, statistical.stm_pca, alpha=cfg.train.alpha)
        dump = context_dump(stm_sc, statistical, fused, cfg.train.alpha)
        cols = [s - 1 for s in fused.stm_fusion]
        if in_context:
            faults = {i + 1 for i, s in enumerate(fused.stm_fusion) if s in faults}
            if not faults:
                return {}, faults, dump

    rankings = {}
    for scenario in cfg.scenarios:
        if scenario == "origin":
            scen_ds = dataset
        elif scenario == "pcd":
            bundle = train(dataset.matrix[:, cols], dataset.errors, cfg.train,
                           rng=stream("training"))
            scen_ds = aug_mod.generate_until_balanced(
                bundle, dataset, cols, cfg.train, stream("sampling")).dataset
        elif scenario == "undersample":
            scen_ds = aug_mod.undersample(dataset, stream("undersample")).dataset
        elif scenario == "resample":
            scen_ds = aug_mod.resample(dataset, stream("resample")).dataset
        else:
            raise InvalidConfig(f"unknown scenario {scenario!r}")
        if in_context:
            scen_ds = CoverageDataset(scen_ds.matrix[:, cols], scen_ds.errors, scen_ds.test_ids)
        counts = tally(scen_ds)
        for method in cfg.methods:
            if method == "mlpfl":
                seed = int(stream(scenario, method).integers(0, 2**31 - 1))
                scores = virtual_suspiciousness(train_mlpfl(scen_ds, MlpFlConfig(seed=seed)))
            else:
                scores = score(method, counts)
            rankings[(scenario, method)] = rank(scores)
    return rankings, faults, dump


def run_pipeline(cfg: RunConfig, versions: list[Version] | None = None) -> MetricsReport:
    cfg.validate()
    if versions is None:
        # Each version is read and parsed inside its own isolation below.
        corpus = Path(cfg.corpus)
        loaders = [(vid, partial(load_version, corpus / vid)) for vid in read_manifest(corpus)]
    else:
        loaders = [(v.version_id, lambda v=v: v) for v in versions]
    cells: dict[tuple[str, str], list[VersionResult]] = {}
    errors: list[dict] = []
    context_dumps: dict[str, str] = {}

    for version_id, load in loaders:
        try:
            version = load()
            rankings, faults, dump = process_version(version, cfg)
        except (FaultlabError, MemoryError) as exc:
            errors.append({"version": version_id,
                           "error": type(exc).__name__, "message": str(exc)})
            continue
        if dump is not None:
            context_dumps[version.version_id] = dump
        for key, ranked in rankings.items():
            cells.setdefault(key, []).append(
                VersionResult(version.version_id, ranked, faults, tie=cfg.tie))

    report = summarize(cells)
    report.errors = errors
    report.config = {}
    for knob in KNOBS:
        if knob.reported:
            value = getattr(knob.target(cfg), knob.field)
            report.config[knob.field] = list(value) if isinstance(value, tuple) else value
    report.config["contexts"] = context_dumps
    return report


REPORT_FORMATS = ("json", "txt", "csv")


def emit_report(report: MetricsReport, out_dir: str | Path,
                formats: tuple[str, ...] = REPORT_FORMATS) -> list[Path]:
    for f in formats:
        if f not in REPORT_FORMATS:
            raise InvalidConfig(f"unknown report format {f!r}; "
                                f"valid: {', '.join(REPORT_FORMATS)}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if "json" in formats:
            p = out / "report.json"
            p.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
            written.append(p)
        if "txt" in formats:
            p = out / "report.txt"
            p.write_text(render_table(report))
            written.append(p)
        if "csv" in formats:
            p = out / "rimp.csv"
            p.write_text(rimp_csv(report))
            written.append(p)
        return written
    except OSError as exc:
        raise IoError(f"cannot write report to {out}: {exc}") from exc
