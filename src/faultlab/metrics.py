"""Localization quality metrics: Top-K, MFR, MAR, and relative improvement."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidRange, MissingFaults, ZeroBaseline
from .spectra import RankedList


@dataclass
class VersionResult:
    version_id: str
    ranking: RankedList
    faulty_statements: set[int]
    tie: str = "ordinal"

    def fault_ranks(self) -> list[int]:
        if not self.faulty_statements:
            raise MissingFaults(f"version {self.version_id!r} has no ground-truth faults")
        return [self.ranking.rank_of(s, tie=self.tie) for s in sorted(self.faulty_statements)]

    def first_rank(self) -> int:
        return min(self.fault_ranks())


def topk(results: list[VersionResult], k: int) -> int:
    """Number of versions whose best-ranked fault sits within the top k."""
    if k < 1:
        raise InvalidRange(f"k must be >= 1, got {k}")
    return sum(1 for r in results if r.first_rank() <= k)


def rank_metrics(results: list[VersionResult]) -> tuple[float, float]:
    """(MFR, MAR): mean first rank, mean of per-version average fault rank."""
    if not results:
        raise MissingFaults("no version results")
    firsts = [r.first_rank() for r in results]
    avgs = [float(np.mean(r.fault_ranks())) for r in results]
    return float(np.mean(firsts)), float(np.mean(avgs))


def rimp(ours: float, baseline: float) -> float:
    """100 * ours / baseline; below 100 means fewer statements examined."""
    if baseline == 0:
        raise ZeroBaseline("baseline metric sums to zero")
    return 100.0 * ours / baseline


# ---------------------------------------------------------------------------
# Aggregate report

@dataclass
class ScenarioMetrics:
    top1: int
    top3: int
    top5: int
    mfr: float
    mar: float
    versions: int
    rimp_mfr: float | None = None    # vs the origin scenario
    rimp_mar: float | None = None


@dataclass
class MetricsReport:
    cells: dict[str, dict[str, ScenarioMetrics]] = field(default_factory=dict)
    per_version: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def add(self, scenario: str, method: str, metrics: ScenarioMetrics) -> None:
        self.cells.setdefault(scenario, {})[method] = metrics

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "results": {scn: {m: asdict(sm) for m, sm in methods.items()}
                        for scn, methods in self.cells.items()},
            "per_version": self.per_version,
            "errors": self.errors,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsReport":
        """Inverse of `to_dict`; a payload of another shape raises TypeError
        or AttributeError."""
        report = cls(config=payload.get("config", {}),
                     per_version=payload.get("per_version", []),
                     errors=payload.get("errors", []))
        for scenario, methods in payload.get("results", {}).items():
            for method, vals in methods.items():
                report.add(scenario, method, ScenarioMetrics(**vals))
        return report


def summarize(results_by_cell: dict[tuple[str, str], list[VersionResult]],
              baseline_scenario: str = "origin") -> MetricsReport:
    """Fold per-version results into the scenario x method report.

    RImp compares summed metrics against the baseline scenario for the
    same method, so a value below 100% means the scenario examined fewer
    statements in total.
    """
    report = MetricsReport()
    sums: dict[tuple[str, str], tuple[float, float, int]] = {}
    for (scenario, method), results in results_by_cell.items():
        firsts = [r.first_rank() for r in results]
        avgs = [float(np.mean(r.fault_ranks())) for r in results]
        sums[(scenario, method)] = (float(np.sum(firsts)), float(np.sum(avgs)), len(results))

    for (scenario, method), results in results_by_cell.items():
        mfr, mar = rank_metrics(results)
        sm = ScenarioMetrics(
            top1=topk(results, 1),
            top3=topk(results, 3),
            top5=topk(results, 5),
            mfr=mfr,
            mar=mar,
            versions=len(results),
        )
        base = sums.get((baseline_scenario, method))
        ours = sums[(scenario, method)]
        if scenario != baseline_scenario and base and base[0] > 0 and base[1] > 0:
            sm.rimp_mfr = rimp(ours[0], base[0])
            sm.rimp_mar = rimp(ours[1], base[1])
        report.add(scenario, method, sm)
        for r in results:
            report.per_version.append({
                "version": r.version_id,
                "scenario": scenario,
                "method": method,
                "first_rank": r.first_rank(),
                "fault_ranks": r.fault_ranks(),
            })
    return report


def render_table(report: MetricsReport) -> str:
    """Fixed-width text table with the Top-1/Top-3/Top-5/MFR/MAR layout."""
    lines = []
    header = (f"{'Scenario':<12} {'Method':<10} {'Top-1':>6} {'Top-3':>6} "
              f"{'Top-5':>6} {'MFR':>9} {'MAR':>9} {'RImp-MFR':>9} {'RImp-MAR':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for scenario in sorted(report.cells):
        for method in sorted(report.cells[scenario]):
            sm = report.cells[scenario][method]
            rm = f"{sm.rimp_mfr:8.2f}%" if sm.rimp_mfr is not None else "      --"
            ra = f"{sm.rimp_mar:8.2f}%" if sm.rimp_mar is not None else "      --"
            lines.append(
                f"{scenario:<12} {method:<10} {sm.top1:>6} {sm.top3:>6} {sm.top5:>6} "
                f"{sm.mfr:>9.2f} {sm.mar:>9.2f} {rm:>9} {ra:>9}"
            )
    return "\n".join(lines) + "\n"


def rimp_csv(report: MetricsReport) -> str:
    """CSV of RImp percentages for external plotting."""
    lines = ["scenario,method,rimp_mfr,rimp_mar"]
    for scenario in sorted(report.cells):
        for method in sorted(report.cells[scenario]):
            sm = report.cells[scenario][method]
            if sm.rimp_mfr is None:
                continue
            lines.append(f"{scenario},{method},{sm.rimp_mfr:.4f},{sm.rimp_mar:.4f}")
    return "\n".join(lines) + "\n"
