import numpy as np
import pytest

from faultlab.context import (
    contribution_select,
    default_m,
    eigen_sym,
    fuse,
)
from faultlab.errors import (
    DegenerateData,
    InsufficientContext,
    NotSymmetric,
)
from conftest import REFERENCE_PCA_ORDER


# -- eigensolver -------------------------------------------------------------

def test_eigen_diagonal():
    vals, vecs = eigen_sym(np.diag([2.0, 1.0]))
    assert vals.tolist() == [2.0, 1.0]
    assert np.allclose(np.abs(vecs), np.eye(2))


def test_eigen_2x2_characteristic_polynomial():
    # [[2,1],[1,2]]: det(A - xI) = (2-x)^2 - 1, roots 3 and 1
    vals, vecs = eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-10)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    for k in range(2):
        assert np.allclose(a @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-8)


def test_eigen_3x3_characteristic_polynomial():
    # block-diagonal: 2 plus the 2x2 block [[3,4],[4,9]] with roots 11 and 1
    a = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 4.0], [0.0, 4.0, 9.0]])
    vals, vecs = eigen_sym(a)
    assert np.allclose(vals, [11.0, 2.0, 1.0], atol=1e-8)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-8)


def test_eigen_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigen_sign_convention_and_orthonormality():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        vals, vecs = eigen_sym(a)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)
        assert np.all(np.diff(vals) <= 1e-12)
        for k in range(n):
            col = vecs[:, k]
            assert col[np.argmax(np.abs(col))] > 0
        for k in range(n):
            assert np.allclose(a @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-8)


def _structured_coverage(rng, rows, n):
    """Random 0/1 coverage with constant, copied and complemented columns.

    Returns the matrix and the groups of columns equal up to complement.
    """
    x = rng.integers(0, 2, size=(rows, n)).astype(float)
    cols = rng.permutation(n)
    groups = []
    for g in range(n // 6):
        lead, copy, comp = sorted(cols[3 * g:3 * g + 3])
        x[:, copy] = x[:, lead]
        x[:, comp] = 1.0 - x[:, lead]
        groups.append([lead, copy, comp])
    for c in cols[3 * (n // 6):3 * (n // 6) + 3]:
        x[:, c] = float(c % 2)
    return x, groups


def _covariance(x):
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (len(x) - 1)


@pytest.mark.parametrize("n", [33, 48, 64])
def test_eigen_wide_coverage_covariance(n):
    rng = np.random.default_rng(n)
    x, _ = _structured_coverage(rng, 104, n)
    a = _covariance(x)
    zero_rows = np.flatnonzero(~a.any(axis=1))
    assert len(zero_rows) >= 3
    vals, vecs = eigen_sym(a)
    want = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(vals - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))
    assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-8)
    for k in range(n):
        col = vecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0
    for i in zero_rows:
        unit = np.eye(n)[i]
        assert any(np.array_equal(vecs[:, k], unit) for k in range(n))


# -- contribution selection ---------------------------------------------------

def test_constant_column_ranks_last():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=(8, 4)).astype(float)
    x[:, 2] = 1.0
    ctx = contribution_select(x)
    assert ctx.stm_pca[-1] == 3  # the constant column (index 2 -> statement 3)
    assert ctx.contributions[2] == pytest.approx(0.0, abs=1e-9)


def test_identical_columns_tie_by_index():
    x = np.array([
        [1, 1, 0, 1],
        [0, 0, 1, 0],
        [1, 1, 1, 1],
        [0, 0, 0, 1],
        [1, 1, 0, 0],
    ], dtype=float)
    ctx = contribution_select(x)
    c = ctx.contributions
    assert c[0] == pytest.approx(c[1], abs=1e-9)
    assert ctx.stm_pca.index(1) + 1 == ctx.stm_pca.index(2)


def test_structural_ties_are_exact():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(18, 40))
        x, groups = _structured_coverage(rng, int(rng.integers(30, 80)), n)
        ctx = contribution_select(x)
        # the tie is real: the solver's own loadings agree within round-off
        _, vecs = eigen_sym(_covariance(x))
        raw = np.abs(vecs[:, :ctx.m]).sum(axis=1)
        for group in groups:
            assert np.allclose(raw[group], raw[group[0]], rtol=0.0, atol=1e-8)
            assert all(ctx.contributions[g] == ctx.contributions[group[0]] for g in group)
            where = [ctx.stm_pca.index(g + 1) for g in group]
            assert where == sorted(where)


def test_contribution_matches_lapack_oracle():
    rng = np.random.default_rng(99)
    accepted = 0
    while accepted < 100:
        x = rng.integers(0, 2, size=(6, 5)).astype(float)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / 5.0
        w, v = np.linalg.eigh(cov)
        w, v = w[::-1], v[:, ::-1]
        m = 2
        # Individual eigenvector loadings are only well defined when every
        # top-m eigenvalue is simple; skip ambiguous spectra.
        if np.min(w[:m] - w[1:m + 1]) < 1e-6:
            continue
        contrib = np.abs(v[:, :m]).sum(axis=1)
        gaps = np.diff(np.sort(contrib))
        if np.any((gaps > 0) & (gaps < 1e-7)):
            continue
        want = sorted(range(5), key=lambda i: (-np.round(contrib[i], 9), i))
        ctx = contribution_select(x, m=2)
        assert ctx.stm_pca == [i + 1 for i in want]
        accepted += 1


def test_covariance_eigenvalues_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.integers(0, 2, size=(7, 6)).astype(float)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / 6.0
        vals, _ = eigen_sym(cov)
        assert vals.min() > -1e-10


def test_default_m_explains_95_percent():
    vals = np.array([8.0, 1.0, 0.5, 0.4, 0.1])
    # 8/10 = 80%, 9/10 = 90%, 9.5/10 = 95% -> m = 3
    assert default_m(vals) == 3
    assert default_m(np.array([1.0, 0.0])) == 1


def test_contribution_select_requires_samples():
    with pytest.raises(DegenerateData):
        contribution_select(np.ones((1, 3)))


# -- fusion --------------------------------------------------------------------

def test_fuse_reference_example():
    sc = [1, 3, 7, 8, 14, 15]
    fused = fuse(sc, REFERENCE_PCA_ORDER, alpha=1.0, target_dim=4)
    assert fused.stm_fusion == [1, 3, 14, 15]
    assert fused.k_f == 6


def test_fuse_default_width_matches_reference(golden_semantic):
    fused = fuse(golden_semantic.stm_sc, REFERENCE_PCA_ORDER, alpha=1.0)
    assert fused.stm_fusion == [1, 3, 14, 15]
    assert fused.target_dim == 4


def test_fuse_whole_set_when_prefix_covers():
    sc = [2, 4, 6, 8]
    pca = [2, 4, 6, 8, 1, 3]
    fused = fuse(sc, pca, alpha=1.0, target_dim=4)
    assert fused.stm_fusion == [2, 4, 6, 8]


def test_fuse_alpha_zero_scans_from_start():
    sc = [2, 5, 7, 9]
    pca = [1, 7, 3, 2, 5, 9]
    fused = fuse(sc, pca, alpha=0.0, target_dim=4)
    # scan order admits 7, 2, 5, 9
    assert fused.k_f == 0
    assert fused.stm_fusion == [2, 5, 7, 9]


def test_fuse_insufficient_context():
    with pytest.raises(InsufficientContext):
        fuse([1, 2, 3], [1, 2, 3, 4, 5], alpha=1.0)


def test_fuse_subset_of_semantic_context():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(6, 16))
        sc = sorted(rng.choice(range(1, n + 1), size=rng.integers(4, n), replace=False).tolist())
        pca = rng.permutation(range(1, n + 1)).tolist()
        fused = fuse(sc, pca, alpha=float(rng.random()))
        assert set(fused.stm_fusion) <= set(sc)
        assert fused.target_dim % 2 == 0
        assert len(fused.stm_fusion) == fused.target_dim
        assert fused.stm_fusion == sorted(fused.stm_fusion)
