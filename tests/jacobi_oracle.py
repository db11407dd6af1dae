"""The full-matrix round-robin Jacobi solver: the bit-exactness oracle.

`context.eigen_sym` used to rotate the whole (2n x n) stack of a and v,
gathering and scattering its columns in every round.  It now rotates only
the live block, stored transposed, with index plans built once per call.
Every element still goes through the same operations in the same order,
so both solvers must agree bit for bit; the old body is kept here
verbatim as the reference.
"""

from __future__ import annotations

import numpy as np

from faultlab.context import JACOBI_MAX_SWEEPS, JACOBI_OFF_TOL, SYMMETRY_TOL
from faultlab.errors import NoConvergence, NotSymmetric


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
    av = np.vstack([(a + a.T) / 2.0, np.eye(n)])   # one column update serves a and v
    a, v = av[:n], av[n:]

    def off_norm(mat):
        off = mat - np.diag(np.diag(mat))
        return np.sqrt(np.sum(off * off))

    live = np.flatnonzero(np.any((a != 0.0) & ~np.eye(n, dtype=bool), axis=1))
    # A sweep pairs the k rows not yet diagonal in m rounds of disjoint, so
    # commuting, rotations.  Modulus ordering (Luk & Park, 1989): round r
    # pairs i < j < m with i + j = r mod m, and m with the i where 2i = r mod m.
    k = len(live)
    m = k - 1 + k % 2
    i, j = np.triu_indices(k, 1)
    r = np.where(j < m, i + j, 2 * i) % m
    rounds = [(live[i[r == x]], live[j[r == x]]) for x in range(m)]

    for _ in range(max_sweeps):
        if off_norm(a) < off_tol:
            break
        for p, q in rounds:
            apq = a[p, q]
            rotated = apq != 0.0
            p, q, apq = p[rotated], q[rotated], apq[rotated]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[theta == 0.0] = 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
            cc, ss = np.concatenate((c, c)), np.concatenate((-s, s))
            for mat in (a.T, av):        # rows of a, then columns of a and v
                mat[:, pq] = mat[:, pq] * cc + mat[:, qp] * ss
    else:
        if off_norm(a) >= off_tol:
            raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")

    eigvals = np.diag(a).copy()
    order = sorted(range(n), key=lambda i: (-eigvals[i], i))
    eigvals = eigvals[order]
    vecs = v[:, order]
    for k in range(n):
        col = vecs[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            vecs[:, k] = -col
    return eigvals, vecs
