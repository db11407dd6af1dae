"""Coverage spectra, suspiciousness formulas, and statement ranking.

The dataset is the classic M x N binary coverage matrix plus a length-M
error vector (1 = failing test).  Scores come from four published
statement-level formulas; degenerate denominators (and statements executed
by no test at all) score 0 so that rankings stay total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySuite, NonFiniteScore

FORMULAS = ("dstar", "ochiai", "barinel", "gp02")


@dataclass
class CoverageDataset:
    matrix: np.ndarray               # (M, N) int8
    errors: np.ndarray               # (M,) int8, 1 = fail
    # "t1".."tM" for executed tests; rows added by balancing are "g<k>"
    # (generated) or "r<k>" (resampled)
    test_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int8)
        self.errors = np.asarray(self.errors, dtype=np.int8)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.errors.shape[0]:
            raise ValueError("matrix and error vector dimensions disagree")
        if not self.test_ids:
            self.test_ids = [f"t{i + 1}" for i in range(self.matrix.shape[0])]

    @property
    def num_tests(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_statements(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_failing(self) -> int:
        return int(self.errors.sum())

    @property
    def num_passing(self) -> int:
        return self.num_tests - self.num_failing


@dataclass
class SpectrumTally:
    a_ef: np.ndarray
    a_ep: np.ndarray
    a_nf: np.ndarray
    a_np: np.ndarray


@dataclass
class RankedList:
    order: list[int]             # statement indices, best first
    scores: np.ndarray           # (N,) score per statement (by index-1 position)
    ranks: np.ndarray            # (N,) ordinal rank per statement (by index-1 position)

    def rank_of(self, stmt: int, tie: str = "ordinal") -> int:
        """Ordinal rank of a statement; tie="best" gives the best rank in its tie group."""
        r = int(self.ranks[stmt - 1])
        if tie == "ordinal":
            return r
        if tie == "best":
            score = self.scores[stmt - 1]
            return int(np.sum(self.scores > score)) + 1
        raise ValueError(f"unknown tie mode {tie!r}")


def build_spectra(records) -> CoverageDataset:
    """Stack execution records into a coverage dataset."""
    records = list(records)
    if not records:
        raise EmptySuite("no execution records")
    matrix = np.stack([r.coverage_row for r in records]).astype(np.int8)
    errors = np.array([1 if r.failing else 0 for r in records], dtype=np.int8)
    return CoverageDataset(
        matrix=matrix,
        errors=errors,
        test_ids=[r.test_id or f"t{i + 1}" for i, r in enumerate(records)],
    )


def tally(dataset: CoverageDataset) -> SpectrumTally:
    cov = dataset.matrix.astype(np.float64)
    fail = (dataset.errors == 1).astype(np.float64)
    a_ef = fail @ cov
    a_ep = (1.0 - fail) @ cov
    a_nf = fail.sum() - a_ef
    a_np = (1.0 - fail).sum() - a_ep
    return SpectrumTally(a_ef=a_ef, a_ep=a_ep, a_nf=a_nf, a_np=a_np)


def _safe_div(num, den):
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den != 0)
    return out


def score(formula: str, tallies: SpectrumTally) -> np.ndarray:
    """Per-statement suspiciousness under one formula.

    dstar   : a_ef^2 / (a_ep + a_nf)
    ochiai  : a_ef / sqrt((a_ef + a_nf)(a_ef + a_ep))
    barinel : 1 - a_ep / (a_ep + a_ef)
    gp02    : 2(a_ef + sqrt(a_np)) + sqrt(a_ep)

    Division by zero and 0/0 yield 0; a statement covered by no test scores
    0 under every formula.
    """
    ef, ep, nf, ap = tallies.a_ef, tallies.a_ep, tallies.a_nf, tallies.a_np
    uncovered = (ef == 0) & (ep == 0)
    if formula == "dstar":
        s = _safe_div(ef ** 2, ep + nf)
    elif formula == "ochiai":
        s = _safe_div(ef, np.sqrt((ef + nf) * (ef + ep)))
    elif formula == "barinel":
        s = 1.0 - _safe_div(ep, ep + ef)
        s[(ep + ef) == 0] = 0.0
    elif formula == "gp02":
        s = 2.0 * (ef + np.sqrt(ap)) + np.sqrt(ep)
    else:
        raise ValueError(f"unknown formula {formula!r}; pick one of {FORMULAS}")
    s[uncovered] = 0.0
    return s


def rank(scores: np.ndarray) -> RankedList:
    """Stable descending sort; ties broken by ascending statement index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScore("scores contain NaN or infinity")
    order0 = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    ranks = np.empty(len(scores), dtype=np.int64)
    for pos, j in enumerate(order0, start=1):
        ranks[j] = pos
    return RankedList(order=[j + 1 for j in order0], scores=scores.copy(), ranks=ranks)
