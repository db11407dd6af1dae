"""Class-balancing of coverage datasets.

Three routes to #fail == #pass: generating synthetic failing rows with
the trained diffusion model (confined to the fused-context columns),
undersampling passing rows, or resampling failing rows with replacement.
Original rows are never modified; synthetic/duplicated rows are flagged
in the provenance column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import FusedContext
from .diffusion import DiffusionBundle, TrainConfig, dpm_solve
from .errors import NoFailingTests, NonFinite
from .neural import FAIL_CLASS
from .spectra import CoverageDataset

SCENARIOS = ("origin", "pcd", "undersample", "resample")


@dataclass
class AugmentedDataset:
    dataset: CoverageDataset     # the dataset to evaluate FL on
    scenario: str
    synthetic_rows: np.ndarray   # (k, N) rows added (empty for origin/undersample)


def binarize(sample: np.ndarray) -> np.ndarray:
    """Decode a generated row by sign: bit = 1 iff value > 0."""
    sample = np.asarray(sample, dtype=np.float64)
    if not np.all(np.isfinite(sample)):
        raise NonFinite("generated sample contains NaN or infinity")
    return (sample > 0.0).astype(np.int8)


def _with_rows(dataset: CoverageDataset, rows, errors, prov, test_ids) -> CoverageDataset:
    return CoverageDataset(
        matrix=np.concatenate([dataset.matrix, rows]) if len(rows) else dataset.matrix.copy(),
        errors=np.concatenate([dataset.errors, errors]) if len(errors) else dataset.errors.copy(),
        stmt_ids=list(dataset.stmt_ids),
        provenance=list(dataset.provenance) + list(prov),
        test_ids=list(dataset.test_ids) + list(test_ids),
    )


def generate_until_balanced(
    bundle: DiffusionBundle,
    dataset: CoverageDataset,
    ctx: FusedContext,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> AugmentedDataset:
    """Add diffusion-generated failing rows until the classes balance.

    Generated rows live on the fused-context columns; all other columns of
    a synthetic row are zero.  If the dataset is already balanced this is
    a no-op.
    """
    if dataset.num_failing == 0:
        raise NoFailingTests("cannot augment a dataset with no failing tests")
    deficit = dataset.num_passing - dataset.num_failing
    n_stmts = dataset.num_statements
    cols = [s - 1 for s in ctx.stm_fusion]
    rows = np.zeros((0, n_stmts), dtype=np.int8)
    if deficit > 0:
        bits = np.zeros((deficit, len(cols)), dtype=np.int8)
        pending = list(range(deficit))
        attempts = 0
        while pending:
            raw = dpm_solve(bundle, len(pending), rng, label=FAIL_CLASS,
                            gamma=cfg.gamma, steps=cfg.sample_steps,
                            order=cfg.sample_order)
            fresh = binarize(raw)
            if cfg.reject_empty and attempts < 20:
                keep = [i for i, row in enumerate(fresh) if row.any()]
            else:
                keep = list(range(len(fresh)))
            for src in keep:
                if not pending:
                    break
                bits[pending.pop(0)] = fresh[src]
            attempts += 1
        rows = np.zeros((deficit, n_stmts), dtype=np.int8)
        rows[:, cols] = bits
    errors = np.ones(len(rows), dtype=np.int8)
    prov = ["synthetic"] * len(rows)
    ids = [f"g{i + 1}" for i in range(len(rows))]
    return AugmentedDataset(
        dataset=_with_rows(dataset, rows, errors, prov, ids),
        scenario="pcd",
        synthetic_rows=rows,
    )


def undersample(dataset: CoverageDataset, rng: np.random.Generator) -> AugmentedDataset:
    """Uniformly drop passing rows (without replacement) until balance."""
    if dataset.num_failing == 0:
        raise NoFailingTests("cannot undersample a dataset with no failing tests")
    pass_idx = np.flatnonzero(dataset.errors == 0)
    surplus = len(pass_idx) - dataset.num_failing
    keep = np.ones(dataset.num_tests, dtype=bool)
    if surplus > 0:
        drop = rng.choice(pass_idx, size=surplus, replace=False)
        keep[drop] = False
    sel = np.flatnonzero(keep)
    reduced = CoverageDataset(
        matrix=dataset.matrix[sel].copy(),
        errors=dataset.errors[sel].copy(),
        stmt_ids=list(dataset.stmt_ids),
        provenance=[dataset.provenance[i] for i in sel],
        test_ids=[dataset.test_ids[i] for i in sel],
    )
    return AugmentedDataset(
        dataset=reduced,
        scenario="undersample",
        synthetic_rows=np.zeros((0, dataset.num_statements), dtype=np.int8),
    )


def resample(dataset: CoverageDataset, rng: np.random.Generator) -> AugmentedDataset:
    """Duplicate failing rows uniformly with replacement until balance."""
    if dataset.num_failing == 0:
        raise NoFailingTests("cannot resample a dataset with no failing tests")
    fail_idx = np.flatnonzero(dataset.errors == 1)
    deficit = dataset.num_passing - dataset.num_failing
    if deficit > 0:
        picks = rng.choice(fail_idx, size=deficit, replace=True)
        rows = dataset.matrix[picks].copy()
    else:
        rows = np.zeros((0, dataset.num_statements), dtype=np.int8)
    errors = np.ones(len(rows), dtype=np.int8)
    prov = ["synthetic"] * len(rows)
    ids = [f"r{i + 1}" for i in range(len(rows))]
    return AugmentedDataset(
        dataset=_with_rows(dataset, rows, errors, prov, ids),
        scenario="resample",
        synthetic_rows=rows,
    )
