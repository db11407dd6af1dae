"""Principal context construction.

Two cooperating selections feed the generative model:

* a statistical context: statements ranked by their summed absolute
  loadings on the leading eigenvectors of the coverage covariance
  (feature selection on the original columns, not a projection), and
* a fused context: the semantic slice set filtered and ordered by the
  statistical ranking, truncated to the model's width.

Both are lists of 1-based statement indices; the pipeline projects the
coverage matrix onto the fused list.

The symmetric eigensolver is a round-robin (parallel-ordered) Jacobi
iteration over the rows with non-zero off-diagonal entries.  It rotates
only that live block, kept transposed so that the column update gathers
contiguous rows, from index plans built once per call.  It uses only
elementwise numpy operations, never a linear-algebra backend, so the
selection is reproducible bit-for-bit.  Columns that are equal up to shift
and sign tie exactly in contribution, so the index tie-break orders them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateData,
    InsufficientContext,
    NoConvergence,
    NotSymmetric,
)

VARIANCE_COVERAGE = 0.95     # default: smallest m explaining 95% of variance
MIN_WIDTH = 4                # denoiser needs at least 4 columns
SYMMETRY_TOL = 1e-9
JACOBI_OFF_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100


@dataclass
class StatisticalContext:
    stm_pca: list[int]           # statement indices, descending contribution
    contributions: np.ndarray    # (N,) contribution value per statement
    m: int                       # number of leading eigenvectors used


@dataclass
class FusedContext:
    stm_fusion: list[int]        # sorted ascending
    alpha: float
    k_f: int                     # fusion size alpha * |StmSC|
    target_dim: int              # K


def _sweep_plan(k: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Index plan of one sweep over k >= 2 live rows, one entry per round.

    Modulus ordering (Luk & Park, 1989): with m = k rounds for odd k and
    k - 1 for even k, round r pairs i < j < m with i + j = r mod m, and m
    with the i where 2i = r mod m.  Pairs in a round are disjoint, so their
    rotations commute.  Each round holds (p, q) in that pair order as pq,
    then (p, q, q, p) as pqqp, and the flat indices into the (k, 2k) stack
    of a[p, q], a[p, p] and a[q, q], each twice (see eigen_sym).
    """
    m = k - 1 + k % 2
    i, j = np.triu_indices(k, 1)
    r = np.where(j < m, i + j, 2 * i) % m
    by_round = np.argsort(r, kind="stable")      # keeps the pair order within a round
    p, q = i[by_round].reshape(m, -1), j[by_round].reshape(m, -1)
    width = 2 * k
    apq, app, aqq = q * width + p, p * (width + 1), q * (width + 1)
    pq = np.hstack((p, q))
    return list(zip(pq, np.hstack((pq, q, p)),
                    np.hstack((apq, apq, app, app, aqq, aqq))))


def eigen_sym(matrix: np.ndarray,
              off_tol: float = JACOBI_OFF_TOL,
              max_sweeps: int = JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns, each sign-fixed so its largest-magnitude
    component is positive.  A row that is already diagonal keeps e_i.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric("input must be a square matrix")
    if not np.allclose(a, a.T, atol=SYMMETRY_TOL, rtol=0.0):
        raise NotSymmetric("matrix is not symmetric within 1e-9")
    n = a.shape[0]
    a = (a + a.T) / 2.0
    # Rotations only mix the k rows with a non-zero off-diagonal entry, so
    # only the k x k live block of a and of v = I changes.  Row j of the
    # stack st holds column j of both blocks: the column update of [a; v]
    # is a row update of st, and the row update of a is a column update of
    # its a^T block.
    live = np.flatnonzero(np.any((a != 0.0) & ~np.eye(n, dtype=bool), axis=1))
    k = len(live)
    block = np.ix_(live, live)
    st = np.hstack((a[block].T, np.eye(k)))
    at, flat = st[:, :k], st.reshape(-1)

    def off_norm():
        # Summed over the full matrix: the live block alone would group
        # numpy's pairwise sum differently.
        a[block] = at.T
        off = a - np.diag(np.diag(a))
        return np.sqrt(np.sum(off * off))

    plan = _sweep_plan(k) if k else []
    h2 = k // 2 * 2                              # rotations per round, times two
    # theta * theta overflows when a[p, q] is round-off residue against a
    # diagonal gap; t is then +-0 either way, so the warning says nothing.
    # The state is set once per call: entering it costs about 2 us, and a
    # call makes hundreds of rounds.
    with np.errstate(over="ignore"):
        for _ in range(max_sweeps):
            if off_norm() < off_tol:
                break
            for pq, pqqp, entries in plan:
                # a[p, q], a[p, p], a[q, q], each twice: for the p- and q-halves of pq.
                val = flat.take(entries)
                apq, app, aqq = val[:h2], val[h2:2 * h2], val[2 * h2:]
                if np.count_nonzero(apq) < h2:       # rotate only pairs with a[p, q] != 0
                    rotated = apq != 0.0
                    if not rotated.any():
                        continue
                    apq, app, aqq = apq[rotated], app[rotated], aqq[rotated]
                    pq, pqqp = pq[rotated], pqqp[np.concatenate((rotated, rotated))]
                theta = (aqq - app) / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t[theta == 0.0] = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                half = len(c)
                cs = np.concatenate((c, -s[:half // 2], s[half // 2:]))   # cc, then ss
                x = at.take(pqqp, axis=1) * cs       # rows of a ...
                at[:, pq] = x[:, :half] + x[:, half:]
                x = st.take(pqqp, axis=0) * cs[:, None]   # ... then columns of a and v
                st[pq] = x[:half] + x[half:]
        else:
            if off_norm() >= off_tol:
                raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")

    # The last off_norm() call wrote the final block back into a.
    v = np.eye(n)
    v[block] = st[:, k:].T
    eigvals = np.diag(a).copy()
    order = sorted(range(n), key=lambda i: (-eigvals[i], i))
    eigvals = eigvals[order]
    vecs = v[:, order]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs[:, lead < 0] *= -1.0
    return eigvals, vecs


def default_m(eigvals: np.ndarray, coverage: float = VARIANCE_COVERAGE) -> int:
    """Smallest count of leading eigenvalues explaining `coverage` of the variance."""
    total = float(np.sum(np.clip(eigvals, 0.0, None)))
    if total <= 0.0:
        return 1
    acc = 0.0
    for i, lam in enumerate(eigvals, start=1):
        acc += max(float(lam), 0.0)
        if acc >= coverage * total:
            return i
    return len(eigvals)


def _tie_groups(x: np.ndarray) -> list[int]:
    """For each column, the first column equal to it up to shift and sign.

    Centred columns c and ±c (a copied statement; a then-arm and its
    else-arm) load with equal magnitude on every eigenvector whose
    eigenvalue is non-zero, so their contributions tie exactly.
    """
    d = x - x[0]
    lead = d[np.argmax(d != 0.0, axis=0), np.arange(x.shape[1])]  # first non-zero entry
    d = np.where(lead < 0.0, -d, d)
    seen: dict[tuple, int] = {}
    # Float tuples compare by value, so -0.0 and 0.0 share a key.
    return [seen.setdefault(tuple(col.tolist()), j) for j, col in enumerate(d.T)]


def contribution_select(x: np.ndarray, m: int | None = None) -> StatisticalContext:
    """Rank statements by summed absolute loadings on the top-m eigenvectors.

    covX is the covariance of the coverage columns (rows are samples,
    column-mean centering, divisor M-1).  Contribution of statement i is
    sum_p |V_pi| over the m leading eigenvectors; ties, exact for columns
    equal up to shift and sign, break by ascending statement index.
    """
    x = np.asarray(x, dtype=np.float64)
    rows, n = x.shape
    if rows < 2:
        raise DegenerateData("need at least 2 samples to form a covariance")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (rows - 1)
    eigvals, eigvecs = eigen_sym(cov)
    if m is None:
        m = default_m(eigvals)
    if not 1 <= m <= n:
        raise DegenerateData(f"m={m} outside 1..{n}")
    contributions = np.sum(np.abs(eigvecs[:, :m]), axis=1)[_tie_groups(x)]
    # Structural ties are exact; quantize away solver round-off from others.
    snapped = np.round(contributions, 9)
    order = sorted(range(n), key=lambda i: (-snapped[i], i))
    return StatisticalContext(
        stm_pca=[i + 1 for i in order],
        contributions=contributions,
        m=m,
    )


def default_target_dim(stm_sc, stm_pca, k_f) -> int:
    """Smallest even width >= max(4, initial intersection), capped by |StmSC|.

    The cap is rounded down to even because the denoiser halves its width
    once.
    """
    sc = set(stm_sc)
    initial = [s for s in stm_pca[:k_f] if s in sc]
    lower = max(MIN_WIDTH, len(initial))
    k = lower if lower % 2 == 0 else lower + 1
    cap = len(stm_sc) // 2 * 2
    if cap < MIN_WIDTH:
        raise InsufficientContext(
            f"semantic context has {len(stm_sc)} statements; need at least {MIN_WIDTH}"
        )
    return min(k, cap)


def fuse(
    stm_sc,
    stm_pca,
    alpha: float = 1.0,
    target_dim: int | None = None,
) -> FusedContext:
    """Fuse semantic and statistical contexts into the model's input statements.

    The fusion starts from StmSC ∩ StmPCA[:K^f] (K^f = round(alpha |StmSC|))
    and then walks StmPCA in order, admitting statements that are also in
    StmSC, until the target width is reached.  The emitted index list is
    sorted ascending.  StmPCA is the full statistical order, so it holds
    every context statement; an order that lacks some, so that the walk
    ends short of the width, raises InsufficientContext.
    """
    if alpha < 0:
        raise ValueError("fusion ratio alpha must be non-negative")
    stm_sc = list(stm_sc)
    stm_pca = list(stm_pca)
    k_f = int(round(alpha * len(stm_sc)))
    if target_dim is None:
        target_dim = default_target_dim(stm_sc, stm_pca, k_f)

    sc = set(stm_sc)
    # One ordered filter is equivalent to "initial intersection, then
    # refill": every member of StmPCA[:K^f] ∩ StmSC is met first anyway.
    fusion = [s for s in stm_pca if s in sc][:target_dim]
    if len(fusion) < target_dim:
        raise InsufficientContext(
            f"statistical order holds {len(fusion)} context statements; need {target_dim}")

    return FusedContext(
        stm_fusion=sorted(fusion),
        alpha=alpha,
        k_f=k_f,
        target_dim=target_dim,
    )


def context_dump(semantic, statistical: StatisticalContext, fused: FusedContext) -> str:
    """JSON dump of the three context layers for a version."""
    return json.dumps({
        "stm_sc": semantic.stm_sc,
        "stm_pca": statistical.stm_pca,
        "stm_fusion": fused.stm_fusion,
        "alpha": fused.alpha,
        "m": statistical.m,
        "k": fused.target_dim,
    })
