import math

import numpy as np
import pytest

from faultlab.errors import EmptySuite, NonFiniteScore
from faultlab.spectra import (
    CoverageDataset,
    SpectrumTally,
    build_spectra,
    rank,
    score,
    tally,
)


def _tally(ef, ep, nf, ap):
    return SpectrumTally(
        a_ef=np.array([float(ef)]), a_ep=np.array([float(ep)]),
        a_nf=np.array([float(nf)]), a_np=np.array([float(ap)]),
    )


def test_build_spectra_illustrative(golden_dataset):
    assert golden_dataset.matrix.shape == (6, 16)
    assert golden_dataset.errors.tolist() == [0, 0, 1, 0, 0, 1]


def test_build_spectra_single_record(golden_records):
    ds = build_spectra([golden_records[0]])
    assert ds.matrix.shape == (1, 16)
    assert ds.errors.tolist() == [0]


def test_build_spectra_empty():
    with pytest.raises(EmptySuite):
        build_spectra([])


def test_tally_counts(golden_dataset):
    t = tally(golden_dataset)
    m = golden_dataset.num_tests
    assert np.all(t.a_ef + t.a_ep + t.a_nf + t.a_np == m)
    assert np.all(t.a_ef + t.a_nf == golden_dataset.num_failing)
    # hand count: a column covered by both failing tests and one passing test
    ds = CoverageDataset(
        matrix=np.array([[1], [0], [1], [0], [0], [1]]),
        errors=np.array([1, 0, 1, 0, 0, 0]),
    )
    t2 = tally(ds)
    assert (t2.a_ef[0], t2.a_ep[0], t2.a_nf[0], t2.a_np[0]) == (2, 1, 0, 3)


def test_tally_degenerate_columns():
    ds = CoverageDataset(
        matrix=np.array([[0, 1], [0, 1], [0, 1]]),
        errors=np.array([1, 1, 0]),
    )
    t = tally(ds)
    assert (t.a_ef[0], t.a_ep[0], t.a_nf[0], t.a_np[0]) == (0, 0, 2, 1)
    assert (t.a_ef[1], t.a_ep[1]) == (2, 1)


def test_score_hand_values():
    t = _tally(ef=2, ep=1, nf=0, ap=3)
    assert abs(score("ochiai", t)[0] - 2 / math.sqrt(6)) < 1e-12
    assert abs(score("ochiai", t)[0] - 0.8164965809277260) < 1e-5
    assert score("dstar", t)[0] == pytest.approx(4.0, abs=1e-12)
    assert score("barinel", t)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    gp02 = 2 * (2 + math.sqrt(3)) + 1
    assert score("gp02", t)[0] == pytest.approx(gp02, abs=1e-12)
    assert abs(gp02 - 8.464101615137754) < 1e-9


def test_score_degenerate_tallies_are_zero():
    t = _tally(ef=0, ep=0, nf=2, ap=3)
    for formula in ("dstar", "ochiai", "barinel", "gp02"):
        assert score(formula, t)[0] == 0.0


def test_score_ranges():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.integers(2, 12)
        fails = rng.integers(1, m)
        ef = rng.integers(0, fails + 1)
        ep = rng.integers(0, m - fails + 1)
        t = _tally(ef=ef, ep=ep, nf=fails - ef, ap=(m - fails) - ep)
        assert 0.0 <= score("ochiai", t)[0] <= 1.0
        assert 0.0 <= score("barinel", t)[0] <= 1.0
        assert score("dstar", t)[0] >= 0.0


def test_rank_tie_break_by_index():
    rl = rank(np.array([0.5, 0.9, 0.5]))
    assert rl.order == [2, 1, 3]
    assert rl.ranks.tolist() == [2, 1, 3]


def test_rank_all_equal_is_identity():
    rl = rank(np.array([1.0, 1.0, 1.0]))
    assert rl.order == [1, 2, 3]


def test_rank_rejects_nan():
    with pytest.raises(NonFiniteScore):
        rank(np.array([0.1, float("nan")]))


def test_rank_is_permutation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores = rng.random(rng.integers(1, 30))
        rl = rank(scores)
        assert sorted(rl.order) == list(range(1, len(scores) + 1))
        assert sorted(rl.ranks.tolist()) == list(range(1, len(scores) + 1))


def test_rank_invariance_under_positive_affine():
    rng = np.random.default_rng(4)
    for _ in range(50):
        scores = rng.random(12)
        rl1 = rank(scores)
        rl2 = rank(3.7 * scores + 11.0)
        assert rl1.order == rl2.order


def test_rank_of_tie_modes():
    rl = rank(np.array([0.9, 0.9, 0.1]))
    assert rl.rank_of(2, tie="ordinal") == 2
    assert rl.rank_of(2, tie="best") == 1
