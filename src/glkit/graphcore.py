"""Graph-shift operators, spectral decomposition, GFT, filters, stationarity.

Everything here is dense-matrix based and aimed at graphs with at most a
few hundred vertices. All types are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    BadDimension,
    BadIndex,
    BadK,
    InvalidWeight,
    NotSymmetric,
    WrongKind,
)

SYM_TOL = 1e-10          # absolute symmetry tolerance for undirected shifts
ROWSUM_TOL = 1e-9        # Laplacian |row sum| bound, times max(1, max |entry|)
# eigenvalue gap, in units of eigh's error N eps_mach ||Sigma||_2, at or
# below which modes form one block
DEGENERACY_TOL = 10.0


class ShiftKind(Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    PRECISION = "precision"
    GENERIC = "generic"


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def as_matrix(S) -> np.ndarray:
    """Accept a ShiftOperator or a plain square array, return the array."""
    if isinstance(S, ShiftOperator):
        return S.data
    M = np.asarray(S, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class ShiftOperator:
    """N x N graph-shift operator together with its structural kind.

    The sparsity pattern of ``data`` defines the edge set. ``kind`` records
    which algebraic descriptor of the graph the matrix is; the constructor
    enforces the structural invariants of each kind (zero diagonal and
    nonnegative entries for adjacencies, zero row sums and nonpositive
    off-diagonals for combinatorial Laplacians).
    """

    data: np.ndarray
    kind: ShiftKind = ShiftKind.GENERIC
    directed: bool = False

    def __post_init__(self):
        M = np.asarray(self.data, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise BadDimension(f"shift must be square, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise InvalidWeight("shift contains non-finite entries")
        if not self.directed and np.max(np.abs(M - M.T), initial=0.0) > SYM_TOL:
            raise NotSymmetric("undirected shift must be symmetric to 1e-10")
        if self.kind is ShiftKind.ADJACENCY:
            if np.max(np.abs(np.diag(M)), initial=0.0) > SYM_TOL:
                raise InvalidWeight("adjacency matrix must have zero diagonal")
            if M.min(initial=0.0) < -SYM_TOL:
                raise InvalidWeight("adjacency weights must be nonnegative")
        elif self.kind is ShiftKind.LAPLACIAN:
            bound = ROWSUM_TOL * max(1.0, np.abs(M).max(initial=0.0))
            if np.max(np.abs(M.sum(axis=1)), initial=0.0) > bound:
                raise InvalidWeight("Laplacian rows must sum to zero")
            off = M - np.diag(np.diag(M))
            if off.max(initial=0.0) > SYM_TOL:
                raise InvalidWeight("Laplacian off-diagonals must be <= 0")
        object.__setattr__(self, "data", _frozen(M))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def weights(self) -> np.ndarray:
        """Nonnegative edge-weight matrix implied by this shift."""
        if self.kind is ShiftKind.LAPLACIAN:
            W = -self.data.copy()
            np.fill_diagonal(W, 0.0)
            return W
        W = self.data.copy()
        np.fill_diagonal(W, 0.0)
        return np.abs(W) if self.kind is not ShiftKind.ADJACENCY else W

    def edge_columns(self):
        """Columns (i, j, w) of the nonzero entries: pairs i < j in
        :func:`edge_index` order for undirected shifts, all ordered pairs
        i != j row by row for directed ones, after the (i, i, w)
        diagonal records of precision/generic kinds."""
        M = self.data
        vals = -M if self.kind is ShiftKind.LAPLACIAN else M
        if self.directed:
            rows, cols = np.nonzero((vals != 0) & ~np.eye(self.n, dtype=bool))
        else:
            iu, ju = edge_index(self.n)
            keep = vals[iu, ju] != 0
            rows, cols = iu[keep], ju[keep]
        if self.kind in (ShiftKind.PRECISION, ShiftKind.GENERIC):
            d = np.flatnonzero(np.diag(M))
            rows, cols = np.concatenate([d, rows]), np.concatenate([d, cols])
        return rows, cols, vals[rows, cols]

    def edges(self):
        """Edge list [(i, j, w)] of :meth:`edge_columns`."""
        return list(zip(*(col.tolist() for col in self.edge_columns())))


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigenvector matrix and ascending eigenvalues of a
    symmetric shift; the GFT synthesis/analysis basis."""

    vecs: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vecs, dtype=float)
        lam = np.asarray(self.vals, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] or lam.shape != (V.shape[0],):
            raise BadDimension("basis needs square vecs and matching vals")
        object.__setattr__(self, "vecs", _frozen(V))
        object.__setattr__(self, "vals", _frozen(lam))

    @property
    def n(self) -> int:
        return self.vecs.shape[0]


@dataclass(frozen=True)
class SignalSet:
    """N x P matrix of P graph-signal observations, one signal per column."""

    data: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.data, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise BadDimension(f"signals must be an N x P matrix, got {X.shape}")
        if X.shape[0] < 2 or X.shape[1] < 1:
            raise BadDimension("need at least 2 vertices and 1 sample")
        if not np.all(np.isfinite(X)):
            raise InvalidWeight("signal matrix contains non-finite entries")
        object.__setattr__(self, "data", _frozen(X))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def as_signal_matrix(X) -> np.ndarray:
    return X.data if isinstance(X, SignalSet) else np.asarray(X, dtype=float)


@dataclass(frozen=True)
class FilterSpec:
    """Polynomial graph-filter coefficients h_0 ... h_{L-1}."""

    coeffs: np.ndarray

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if h.ndim != 1 or h.size < 1:
            raise BadDimension("filter coefficients must be a nonempty vector")
        if not np.all(np.isfinite(h)):
            raise InvalidWeight("filter coefficients must be finite")
        object.__setattr__(self, "coeffs", _frozen(h))

    @property
    def length(self) -> int:
        return self.coeffs.size


def as_filter(h) -> FilterSpec:
    return h if isinstance(h, FilterSpec) else FilterSpec(np.asarray(h, dtype=float))


# ---------------------------------------------------------------------------
# construction and decomposition


def build_shift(edges, n: int, kind: ShiftKind = ShiftKind.ADJACENCY,
                directed: bool = False) -> ShiftOperator:
    """Assemble a shift operator from an edge list.

    ``edges`` is an iterable of (i, j, weight). For the adjacency and
    Laplacian kinds weights must be nonnegative and self-loops are
    rejected; the Laplacian is diag(W 1) - W for the implied weight
    matrix. Precision/generic kinds take entries verbatim, including
    (i, i, w) diagonal records.
    """
    if n < 1:
        raise BadIndex("vertex count must be positive")
    W = np.zeros((n, n))
    diag = np.zeros(n)
    for (i, j, w) in edges:
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex(f"edge ({i}, {j}) out of range for n={n}")
        if kind in (ShiftKind.ADJACENCY, ShiftKind.LAPLACIAN):
            if w < 0:
                raise InvalidWeight(f"negative weight {w} on edge ({i}, {j})")
            if i == j:
                raise InvalidWeight("self-loops are not allowed for this kind")
        if i == j:
            diag[i] += w
            continue
        W[i, j] += w
        if not directed:
            W[j, i] += w
    if kind is ShiftKind.LAPLACIAN:
        L = np.diag(W.sum(axis=1)) - W
        return ShiftOperator(L, ShiftKind.LAPLACIAN, directed)
    M = W + np.diag(diag)
    return ShiftOperator(M, kind, directed)


@lru_cache(maxsize=8)
def edge_index(n: int):
    """(iu, ju): the vertex pairs i < j of an N-vertex graph in
    ``np.triu_indices(n, 1)`` order, the one edge order used throughout.

    Read-only and cached for the eight most recent N (2 x 8 bytes per
    pair, 32 MB at N = 2000).
    """
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@lru_cache(maxsize=8)
def edge_positions(n: int):
    """(up, lo): the flat positions i N + j and j N + i of the pairs of
    :func:`edge_index` in a C-ordered N x N matrix, read-only and cached
    like it. Gathers and scatters through them skip 2-D fancy indexing.
    """
    iu, ju = edge_index(n)
    up, lo = iu * n + ju, ju * n + iu
    up.flags.writeable = lo.flags.writeable = False
    return up, lo


def weights_from_edge_vector(w, n: int) -> np.ndarray:
    """Symmetric zero-diagonal N x N weight matrix whose upper triangle,
    read in :func:`edge_index` order, is the edge vector w."""
    iu, ju = edge_index(n)
    W = np.zeros((n, n))
    W[iu, ju] = W[ju, iu] = w
    return W


def laplacian_from_weights(W) -> ShiftOperator:
    """L = diag(W 1) - W for a symmetric nonnegative weight matrix."""
    W = as_matrix(W)
    L = np.diag(W.sum(axis=1)) - W
    return ShiftOperator(L, ShiftKind.LAPLACIAN)


def fix_eigenvector_signs(V: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude coordinate is positive
    (first such coordinate on ties). Gives a reproducible basis."""
    V = np.array(V, dtype=float)
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def eigendecompose(S) -> SpectralBasis:
    """Spectral basis of a symmetric shift, eigenvalues ascending and
    eigenvector signs normalized."""
    M = as_matrix(S)
    if np.max(np.abs(M - M.T), initial=0.0) > SYM_TOL * max(1.0, np.abs(M).max()):
        raise NotSymmetric("eigendecompose requires a symmetric matrix")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return SpectralBasis(fix_eigenvector_signs(vecs), vals)


def sqrt_psd(M) -> np.ndarray:
    """Principal square root of a symmetric PSD matrix by spectral
    factorization, eigenvalues clipped at zero against numerical drift."""
    basis = eigendecompose(M)
    return (basis.vecs * np.sqrt(np.maximum(basis.vals, 0.0))) @ basis.vecs.T


# ---------------------------------------------------------------------------
# transforms and functionals


def gft(x, basis: SpectralBasis) -> np.ndarray:
    """Analysis transform V^T x."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != basis.n:
        raise BadDimension(f"signal length {x.shape[0]} != basis size {basis.n}")
    return basis.vecs.T @ x


def igft(xt, basis: SpectralBasis) -> np.ndarray:
    """Synthesis transform V x̃."""
    xt = np.asarray(xt, dtype=float)
    if xt.shape[0] != basis.n:
        raise BadDimension(f"coefficient length {xt.shape[0]} != basis size {basis.n}")
    return basis.vecs @ xt


def total_variation(x, L) -> float:
    """Quadratic form x^T L x, the Dirichlet energy of x on the graph.

    Equals the sum over unordered vertex pairs of W_ij (x_i - x_j)^2.
    """
    if not (isinstance(L, ShiftOperator) and L.kind is ShiftKind.LAPLACIAN):
        raise WrongKind("total variation is defined against a Laplacian")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != L.n:
        raise BadDimension("signal/Laplacian size mismatch")
    return float(x @ (L.data @ x))


def apply_filter(S, h, x) -> np.ndarray:
    """Apply the polynomial filter sum_l h_l S^l to x.

    Uses iterated shifts (z <- S z) so no power of S is ever formed;
    x may be a vector or an N x P matrix of signals.
    """
    M = as_matrix(S)
    h = as_filter(h).coeffs
    if h.size > M.shape[0]:
        raise BadDimension("filter order exceeds the vertex count")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != M.shape[0]:
        raise BadDimension("signal/shift size mismatch")
    y = h[0] * x
    z = x
    for hl in h[1:]:
        z = M @ z
        y = y + hl * z
    return y


def filter_matrix(S, h) -> np.ndarray:
    """Dense filter matrix H = sum_l h_l S^l (for analysis, not application)."""
    M = as_matrix(S)
    return apply_filter(M, h, np.eye(M.shape[0]))


def filter_freq_response(h, basis: SpectralBasis) -> np.ndarray:
    """Frequency response h̃ = Psi h with Psi_ij = lambda_i^(j-1)."""
    h = as_filter(h).coeffs
    if h.size > basis.n:
        raise BadDimension("filter order exceeds the vertex count")
    psi = np.vander(basis.vals, N=h.size, increasing=True)
    return psi @ h


def stationarity_score(Sigma, basis: SpectralBasis) -> float:
    """Off-diagonal energy ratio of V^T Sigma V in [0, 1].

    Zero iff Sigma is diagonalized by the basis, i.e. iff a process with
    covariance Sigma is weakly stationary on the corresponding shift.
    """
    Sigma = as_matrix(Sigma)
    if Sigma.shape[0] != basis.n:
        raise BadDimension("covariance/basis size mismatch")
    C = basis.vecs.T @ Sigma @ basis.vecs
    total = np.linalg.norm(C)
    if total == 0.0:
        return 0.0
    off = C - np.diag(np.diag(C))
    return float(np.linalg.norm(off) / total)


def graph_psd(Sigma, basis: SpectralBasis, score_threshold: float = 1e-6) -> np.ndarray:
    """Power spectral density diag(V^T Sigma V), clipped at zero.

    Warns when the stationarity score exceeds ``score_threshold`` since
    the diagonal then only captures part of the covariance.
    """
    score = stationarity_score(Sigma, basis)
    if score > score_threshold:
        warnings.warn(
            f"covariance is not diagonalized by the basis (score {score:.3g}); "
            "PSD drops the off-diagonal energy", stacklevel=2)
    Sigma = as_matrix(Sigma)
    p = np.diag(basis.vecs.T @ Sigma @ basis.vecs).copy()
    return np.maximum(p, 0.0)


def bandlimit_reconstruct(x, basis: SpectralBasis, k: int, order: str = "magnitude"):
    """Keep-k GFT synthesis of x.

    ``order="magnitude"`` keeps the k largest-|coefficient| modes,
    ``order="freq"`` keeps the k lowest-frequency modes. Returns the
    reconstruction and its relative l2 error.
    """
    x = np.asarray(x, dtype=float)
    if not (1 <= k <= basis.n):
        raise BadK(f"k={k} outside 1..{basis.n}")
    if order not in ("magnitude", "freq"):
        raise BadK(f"unknown coefficient order {order!r}")
    xt = gft(x, basis)
    if order == "magnitude":
        keep = np.argsort(-np.abs(xt), kind="stable")[:k]
    else:
        keep = np.arange(k)
    mask = np.zeros_like(xt)
    mask[keep] = xt[keep]
    xh = igft(mask, basis)
    nx = np.linalg.norm(x)
    rel = float(np.linalg.norm(x - xh) / nx) if nx > 0 else 0.0
    return xh, rel
