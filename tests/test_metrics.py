import numpy as np
import pytest

from faultlab.cli import main
from faultlab.corpus import generate_corpus
from faultlab.errors import MissingFaults, ZeroBaseline
from faultlab.metrics import (
    MetricsReport,
    VersionResult,
    rank_metrics,
    rimp,
    summarize,
    render_table,
    rimp_csv,
    topk,
)
from faultlab.pipeline import RunConfig, emit_report, run_pipeline
from faultlab.spectra import rank


def _result(vid, scores, faults, tie="ordinal"):
    return VersionResult(vid, rank(np.array(scores, dtype=float)), set(faults), tie=tie)


def test_topk_hand_counts():
    # fault ranks 2 and 7 across two versions
    r1 = _result("v1", [0.5, 0.9, 0.1, 0.0, 0.0, 0.0, 0.0], {1})   # rank 2
    r2 = _result("v2", [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3], {7})   # rank 7
    results = [r1, r2]
    assert topk(results, 1) == 0
    assert topk(results, 3) == 1
    assert topk(results, 5) == 1
    assert topk(results, 7) == 2


def test_topk_rank_one_counts_everywhere():
    r = _result("v", [0.9, 0.1], {1})
    assert topk([r], 1) == topk([r], 3) == topk([r], 5) == 1


def test_topk_empty():
    assert topk([], 3) == 0


def test_topk_monotone_in_k():
    rng = np.random.default_rng(0)
    results = [
        _result(f"v{i}", rng.random(10).tolist(), {int(rng.integers(1, 11))})
        for i in range(20)
    ]
    counts = [topk(results, k) for k in range(1, 11)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_rank_metrics_definitions():
    # one version, faults at ranks 2 and 4 -> MFR 2, MAR 3
    r = _result("v", [0.9, 0.8, 0.7, 0.6], {2, 4})
    mfr, mar = rank_metrics([r])
    assert (mfr, mar) == (2.0, 3.0)


def test_rank_metrics_mean_over_versions():
    r1 = _result("v1", [0.9, 0.8], {1})       # first rank 1
    r2 = _result("v2", [0.9, 0.8, 0.1, 0.0, 0.0], {5})  # first rank 5
    mfr, _ = rank_metrics([r1, r2])
    assert mfr == 3.0


def test_single_fault_mfr_equals_mar():
    rng = np.random.default_rng(1)
    results = [
        _result(f"v{i}", rng.random(8).tolist(), {int(rng.integers(1, 9))})
        for i in range(10)
    ]
    mfr, mar = rank_metrics(results)
    assert mfr == mar


def test_rank_metrics_order_independent():
    rng = np.random.default_rng(2)
    results = [
        _result(f"v{i}", rng.random(8).tolist(), {int(rng.integers(1, 9))})
        for i in range(10)
    ]
    assert rank_metrics(results) == rank_metrics(list(reversed(results)))


def test_rank_metrics_requires_faults():
    with pytest.raises(MissingFaults):
        rank_metrics([])
    with pytest.raises(MissingFaults):
        _result("v", [0.5], set()).fault_ranks()


def test_rimp_values():
    assert rimp(50, 100) == 50.0
    assert rimp(7.5, 7.5) == 100.0
    with pytest.raises(ZeroBaseline):
        rimp(1.0, 0.0)


def test_rimp_reciprocity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = float(rng.uniform(0.1, 50))
        b = float(rng.uniform(0.1, 50))
        assert rimp(a, b) * rimp(b, a) == pytest.approx(10_000.0, rel=1e-12)


def test_tie_mode_flag():
    r_ord = _result("v", [0.9, 0.9, 0.1], {2}, tie="ordinal")
    r_best = _result("v", [0.9, 0.9, 0.1], {2}, tie="best")
    assert r_ord.first_rank() == 2
    assert r_best.first_rank() == 1


def test_summarize_and_renderers():
    cells = {
        ("origin", "gp02"): [
            _result("v1", [0.9, 0.5, 0.1], {2}),
            _result("v2", [0.9, 0.5, 0.1], {1}),
        ],
        ("pcd", "gp02"): [
            _result("v1", [0.5, 0.9, 0.1], {2}),
            _result("v2", [0.9, 0.5, 0.1], {1}),
        ],
    }
    report = summarize(cells)
    origin = report.cells["origin"]["gp02"]
    pcd = report.cells["pcd"]["gp02"]
    assert (origin.top1, origin.top3) == (1, 2)
    assert origin.mfr == 1.5
    assert pcd.mfr == 1.0
    # summed first ranks: origin 2+1=3, pcd 1+1=2
    assert pcd.rimp_mfr == pytest.approx(100.0 * 2 / 3)
    table = render_table(report)
    assert "origin" in table and "gp02" in table
    csv_text = rimp_csv(report)
    assert csv_text.splitlines()[0] == "scenario,method,rimp_mfr,rimp_mar"
    assert any(line.startswith("pcd,gp02,") for line in csv_text.splitlines())


def test_report_dict_round_trip(tmp_path):
    cfg = RunConfig(scenarios=("origin", "resample"), methods=("gp02", "dstar"), seed=9)
    report = run_pipeline(cfg, versions=generate_corpus(3, seed=9))
    payload = report.to_dict()
    assert MetricsReport.from_dict(payload).to_dict() == payload
    emit_report(report, tmp_path / "a", ("json",))
    assert main(["report", "--input", str(tmp_path / "a" / "report.json"),
                 "--out", str(tmp_path / "b"), "--formats", "json"]) == 0
    assert ((tmp_path / "b" / "report.json").read_bytes()
            == (tmp_path / "a" / "report.json").read_bytes())
