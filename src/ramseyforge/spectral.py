"""Dense symmetric spectra and spectral certificates.

Eigenpairs come from LAPACK (numpy's eigh) and are not taken on trust:
every pair must have a small residual ||Av - theta v|| and the eigenvectors
must be orthonormal, so each returned theta lies within its residual of a
true eigenvalue.  On top of that: the (n,d,lambda) report, the even-walk
eigenvalue inequality and the ratio bound on independent sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import Graph, triangle_count

MAX_SPECTRUM_N = 3000


# -- eigensolver ------------------------------------------------------------


def adjacency_matrix(G: Graph) -> np.ndarray:
    """Dense float adjacency matrix of G."""
    n = G.n
    if n == 0:
        return np.zeros((0, 0))
    nbytes = (n + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in G.rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    return bits.reshape(n, 8 * nbytes)[:, :n].astype(float)


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Each eigenpair (theta, v) must satisfy ||Mv - theta v|| <= 1e-7 n and the
    eigenvectors must be orthonormal to within 1e-10 entrywise; otherwise
    ArithmeticError.  For a symmetric M this puts every theta within its
    residual of a true eigenvalue.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    n = M.shape[0]
    if n > MAX_SPECTRUM_N:
        raise ValueError(f"matrix order {n} exceeds the cap {MAX_SPECTRUM_N}")
    if n and not np.allclose(M, M.T, rtol=1e-12, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    if n == 0:
        return np.zeros(0)
    vals, V = np.linalg.eigh(M)
    R = M @ V
    R -= V * vals
    # column norms of R; max() propagates a NaN, and "not <=" rejects it
    worst = math.sqrt(float(np.einsum("ij,ij->j", R, R).max()))
    del R
    if not worst <= 1e-7 * n:
        raise ArithmeticError(f"eigenpair residual {worst:.3g} exceeds {1e-7 * n:.3g}")
    gram = V.T @ V
    gram.flat[:: n + 1] -= 1.0
    skew = float(np.abs(gram, out=gram).max())
    if not skew <= 1e-10:
        raise ArithmeticError(f"eigenvectors off orthonormal by {skew:.3g}")
    return vals[::-1].copy()


# -- spectral report ----------------------------------------------------------


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum of a graph in (n, d, lambda) terms.

    eigenvalues are descending; d is the common degree when regular, the
    average degree otherwise; lam = max{|lambda_i| : i >= 2}; lam_min is the
    least eigenvalue.
    """

    eigenvalues: tuple[float, ...]
    n: int
    is_regular: bool
    d: float
    lam: float
    lam_min: float

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[0]


def spectrum(G: Graph) -> SpectralReport:
    """Full adjacency spectrum; every eigenpair is residual-checked (see
    symmetric_eigenvalues) and the trace invariants are enforced."""
    if G.n > MAX_SPECTRUM_N:
        raise ValueError(f"graph order {G.n} exceeds the cap {MAX_SPECTRUM_N}")
    if G.n == 0:
        raise ValueError("empty graph")
    A = adjacency_matrix(G)
    vals = symmetric_eigenvalues(A)

    n = G.n
    degs = G.degrees
    regular = len(set(degs)) == 1
    d = float(degs[0]) if regular else 2.0 * G.edge_count / n
    lam = max(abs(v) for v in vals[1:]) if n > 1 else 0.0
    report = SpectralReport(
        eigenvalues=tuple(float(v) for v in vals),
        n=n,
        is_regular=regular,
        d=d,
        lam=float(lam),
        lam_min=float(vals[-1]),
    )
    if abs(sum(report.eigenvalues)) > 1e-6 * n:
        raise ArithmeticError("eigenvalue sum deviates from the zero trace")
    e2 = sum(v * v for v in report.eigenvalues)
    if abs(e2 - 2.0 * G.edge_count) > 1e-6 * max(1, G.edge_count):
        raise ArithmeticError("eigenvalue squares deviate from 2|E|")
    if regular and abs(report.lambda1 - d) >= 1e-8:
        raise ArithmeticError("leading eigenvalue of a regular graph is off d")
    return report


def trace_checks(G: Graph, report: SpectralReport) -> dict:
    """Power-sum identities against exact edge and triangle counts."""
    vals = np.array(report.eigenvalues)
    t1 = float(vals.sum())
    t2 = float((vals**2).sum())
    t3 = float((vals**3).sum())
    edges = G.edge_count
    triangles = triangle_count(G)
    sum_ok = abs(t1) <= 1e-6 * max(1, G.n)
    sq_ok = abs(t2 - 2.0 * edges) <= 1e-6 * max(1, edges)
    cube_ok = abs(t3 - 6.0 * triangles) <= 1e-5 * max(1, G.n)
    return {
        "sum": t1,
        "sumSquares": t2,
        "sumCubes": t3,
        "edgeCount": edges,
        "triangleCount": triangles,
        "sumOk": sum_ok,
        "sumSquaresOk": sq_ok,
        "sumCubesOk": cube_ok,
        "ok": sum_ok and sq_ok and cube_ok,
    }


# -- spectral certificates ----------------------------------------------------


def tree_walk_lower_bound(d: int, k: int) -> int:
    """Closed walks of length 2k from a vertex of the infinite d-regular
    tree: (1/k) C(2k-2, k-1) d (d-1)^(k-1), an exact integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    catalan = math.comb(2 * k - 2, k - 1) // k
    return catalan * d * (d - 1) ** (k - 1) if d >= 1 else 0


def alon_boppana_check(report: SpectralReport, k: int) -> bool:
    """Even-walk lower bound on lambda for d-regular graphs:
    d^(2k) + (n-1) lambda^(2k) >= n * treewalks(d, k), within 1e-9 relative
    slack for the float lambda."""
    if not report.is_regular:
        raise ValueError("the walk bound needs a regular graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = report.n
    d = int(report.d)
    lhs = d ** (2 * k) + (n - 1) * report.lam ** (2 * k)
    rhs = n * tree_walk_lower_bound(d, k)
    return lhs >= rhs - 1e-9 * max(1.0, float(rhs))


def hoffman_bound(report: SpectralReport) -> float:
    """Ratio bound on the independence number of a regular graph:
    alpha(G) <= -n lambda_min / (d - lambda_min)."""
    if not report.is_regular:
        raise ValueError("the ratio bound needs a regular graph")
    gap = report.d - report.lam_min
    if gap <= 1e-12:
        raise ValueError("degenerate: least eigenvalue equals the degree")
    return -report.n * report.lam_min / gap
