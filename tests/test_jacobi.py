"""The live-block Jacobi solver against the full-matrix oracle, bit for bit."""

import warnings

import numpy as np
import pytest

from faultlab import context
from faultlab.context import contribution_select, eigen_sym
from faultlab.corpus import generate_corpus
from faultlab.errors import NoConvergence
from faultlab.minilang import execute, parse
from faultlab.spectra import build_spectra

import jacobi_oracle
from randprog import gen_random_program


def _randprog_coverages(count):
    """Coverage of random programs over suites of random inputs.

    Programs whose suite covers every statement alike are skipped: their
    covariance has nothing to rotate.
    """
    rng = np.random.default_rng(11)
    out = []
    while len(out) < count:
        source, inputs = gen_random_program(rng)
        program = parse(source)
        x = np.array([execute(program, {v: int(rng.integers(-3, 8)) for v in inputs},
                              {}).coverage_row for _ in range(int(rng.integers(8, 30)))],
                     dtype=float)
        if np.ptp(x, axis=0).any():
            out.append(x)
    return out


def _corpus_coverages():
    return [build_spectra([execute(v.faulty, t.inputs, t.oracle) for t in v.suite]).matrix
            for v in generate_corpus(12, seed=5)]


def _synthetic_coverage(n, seed):
    """0/1 coverage with constant, copied and 0/1-complemented columns."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(int(rng.integers(n // 2 + 4, 2 * n + 8)), n)).astype(float)
    for _ in range(n // 5):
        lead, copy, comp, const = rng.choice(n, size=4, replace=False)
        x[:, copy] = x[:, lead]
        x[:, comp] = 1.0 - x[:, lead]
        x[:, const] = float(const % 2)
    return x


def _disconnected_coverage(widths, seed):
    """Coverage whose covariance splits into one block per width.

    Every row combination of the parts appears once and each part has a
    power-of-two row count, so the cross-covariances are exactly zero.
    Columns are then shuffled so the blocks interleave.
    """
    rng = np.random.default_rng(seed)
    x = np.ones((1, 0))
    for w in widths:
        part = rng.integers(0, 2, size=(8, w)).astype(float)
        part[:2] = [[0.0], [1.0]]              # no constant column
        x = np.hstack((np.repeat(x, len(part), axis=0), np.tile(part, (len(x), 1))))
    return x[:, rng.permutation(x.shape[1])]


def _covariance(x):
    centered = x - x.mean(axis=0, keepdims=True)
    return centered.T @ centered / (len(x) - 1)


DISCONNECTED = [(3, 3), (2, 5), (4, 4, 1), (6, 7), (1, 1, 1, 2), (5, 9)]
COVERAGES = (
    _randprog_coverages(16)
    + _corpus_coverages()
    + [_synthetic_coverage(n, n) for n in (2, 3, 4, 5, 6, 7, 9, 12, 16, 17, 24, 31,
                                           32, 40, 47, 48, 55, 56, 63, 64)]
    + [_disconnected_coverage(w, i) for i, w in enumerate(DISCONNECTED)]
)


def _live_count(a):
    return int(np.count_nonzero(np.any((a != 0.0) & ~np.eye(len(a), dtype=bool), axis=1)))


def _components(a):
    """Connected components of the graph of a's non-zero off-diagonal entries."""
    linked = (a != 0.0) & ~np.eye(len(a), dtype=bool)
    seen, count = set(), 0
    for start in np.flatnonzero(linked.any(axis=1)):
        if start in seen:
            continue
        count += 1
        todo = [start]
        while todo:
            i = todo.pop()
            if i not in seen:
                seen.add(i)
                todo.extend(np.flatnonzero(linked[i]).tolist())
    return count


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def test_cases_cover_the_shapes_that_matter():
    covs = [_covariance(x) for x in COVERAGES]
    sizes = [len(a) for a in covs]
    live = [_live_count(a) for a in covs]
    assert len(covs) >= 50 and min(sizes) == 2 and max(sizes) == 64
    assert {k % 2 for k in live if k > 2} == {0, 1}
    assert any(k < n for k, n in zip(live, sizes))                    # zero rows
    for a, widths in zip(covs[-len(DISCONNECTED):], DISCONNECTED):
        assert _components(a) >= sum(w > 1 for w in widths)          # disconnected


@pytest.mark.parametrize("index", range(len(COVERAGES)))
def test_eigenpairs_equal_the_full_matrix_solver(index):
    a = _covariance(COVERAGES[index])
    vals, vecs = eigen_sym(a)
    want_vals, want_vecs = jacobi_oracle.eigen_sym(a)
    assert _same_bits(vals, want_vals)
    assert _same_bits(vecs, want_vecs)


@pytest.mark.parametrize("index", range(len(COVERAGES)))
def test_contribution_select_equals_the_full_matrix_solver(index, monkeypatch):
    x = COVERAGES[index]
    got = contribution_select(x)
    monkeypatch.setattr(context, "eigen_sym", jacobi_oracle.eigen_sym)
    want = contribution_select(x)
    assert got.stm_pca == want.stm_pca
    assert got.m == want.m
    assert _same_bits(got.contributions, want.contributions)


def test_non_convergence_matches_the_oracle():
    a = _covariance(COVERAGES[-1])
    for solver in (eigen_sym, jacobi_oracle.eigen_sym):
        with pytest.raises(NoConvergence):
            solver(a, max_sweeps=1)
    early = [solver(a, max_sweeps=3, off_tol=1.0)
             for solver in (eigen_sym, jacobi_oracle.eigen_sym)]
    assert all(_same_bits(x, y) for x, y in zip(*early))


def test_round_off_residue_rotates_without_overflow_warning():
    # A randprog suite of 9 tests and 53 statements with 40 live rows: in 8
    # rotations a[p, q] is round-off residue and theta * theta overflows.
    x = COVERAGES[11]
    a = _covariance(x)
    assert x.shape == (9, 53) and _live_count(a) == 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = eigen_sym(a)
    with np.errstate(over="ignore"):
        want_vals, want_vecs = jacobi_oracle.eigen_sym(a)
    assert _same_bits(vals, want_vals)
    assert _same_bits(vecs, want_vecs)
