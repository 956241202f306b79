"""Topology inference from stationary or diffused signals.

Step 1 estimates the shift's eigenbasis (from the sample covariance for
stationary processes, from an identified filter for non-stationary
ones); Step 2 selects eigenvalues by convex optimization over a shift
constraint set. Also hosts network deconvolution, which feeds the
eigenvectors of an indirect-relationship matrix through the same
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    BadInput,
    NotSymmetric,
    SingularInputCovariance,
    TooLarge,
)
from .graphcore import (
    DEGENERACY_TOL,
    SpectralBasis,
    as_matrix,
    as_signal_matrix,
    eigendecompose,
    fix_eigenvector_signs,
)
from .solvers import (
    ShiftConstraintSet,
    SolverConfig,
    admm_l1_spectral,
    spectral_gap,
)
from .statnet import _as_covariance, _is_covariance

SIGN_SEARCH_MAX_N = 16  # sym_filter_select enumerates 2^N sign patterns


@dataclass(frozen=True)
class FilterEstimate:
    """Recovered symmetric network filter plus recovery metadata."""

    H: np.ndarray
    psd: bool
    provenance: str

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if np.abs(H - H.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(H).max()):
            raise NotSymmetric("filter estimate must be symmetric")
        object.__setattr__(self, "H", 0.5 * (H + H.T))


def estimate_eigenbasis(data):
    """Eigenbasis of the (sample) covariance, the candidate GFT basis.

    ``data`` is a SignalSet / N x P matrix, or an exact covariance
    (symmetric square matrix) for the infinite-sample mode. Returns the
    sign-normalized basis and a boolean flag per mode marking
    eigenvalue clusters, whose eigenvectors are only defined up to
    rotation: a mode is flagged when its gap to a neighboring eigenvalue
    is at most ``DEGENERACY_TOL`` times max(1, max |eigenvalue|).
    """
    basis = eigendecompose(_as_covariance(data))
    scale = max(1.0, float(np.max(np.abs(basis.vals), initial=0.0)))
    close = np.diff(basis.vals) <= DEGENERACY_TOL * scale
    flags = np.zeros(basis.n, dtype=bool)
    flags[1:] |= close
    flags[:-1] |= close
    return basis, flags


def infer_shift(basis, constraint_set: ShiftConstraintSet | None = None,
                eps: float = 0.0, objective: str = "l1",
                config: SolverConfig | None = None):
    """Recover a shift with the prescribed eigenbasis (Step 2).

    ``basis`` is a SpectralBasis or an orthonormal matrix of candidate
    eigenvectors. With eps = 0 the shift is constrained to be exactly
    diagonalized by the basis; eps > 0 allows a Frobenius-ball mismatch
    to absorb finite-sample noise in the eigenvectors.
    """
    V = basis.vecs if isinstance(basis, SpectralBasis) else np.asarray(basis, float)
    constraint_set = constraint_set or ShiftConstraintSet()
    return admm_l1_spectral(V, eps, constraint_set, config, objective)


def infer_shift_partial(V_K, constraint_set: ShiftConstraintSet | None = None):
    """Shift recovery from an incomplete eigenbasis.

    The known columns constrain their spectral block to be diagonal;
    the orthogonal complement carries a free symmetric block. The
    l1-minimal such member of the set is one exact linear program,
    solved by HiGHS with no iteration cap or tolerance to set. K = N
    reduces to :func:`infer_shift` with eps = 0, K = 0 to the sparsest
    member of the constraint set.
    """
    V_K = np.asarray(V_K, dtype=float)
    if V_K.ndim != 2:
        raise BadInput("partial basis must be an N x K matrix")
    constraint_set = constraint_set or ShiftConstraintSet()
    S, lam, trace = admm_l1_spectral(V_K, 0.0, constraint_set)
    return S, trace


def infer_shift_from_signals(data, constraint_set: ShiftConstraintSet | None = None,
                             eps="auto", objective: str = "l1",
                             config: SolverConfig | None = None):
    """End-to-end stationary pipeline: covariance eigenvectors, then
    eigenvalue selection.

    ``eps="auto"`` solves at twice the feasibility gap of the estimated
    basis (:func:`solvers.spectral_gap`, an upper bound on the smallest
    feasible eps) or at zero for an exact covariance input; a numeric
    eps is used as-is. Degenerate eigenvalue blocks in the covariance
    route the unambiguous eigenvectors to the partial-basis variant.
    """
    basis, flags = estimate_eigenbasis(data)
    constraint_set = constraint_set or ShiftConstraintSet()
    if flags.any() and (eps == "auto" or eps == 0):
        # keep only the unambiguous eigenvectors; a fully degenerate
        # spectrum leaves no spectral constraint at all (K = 0) and the
        # sparsest member of the constraint set comes back
        keep = basis.vecs[:, ~flags]
        S, trace = infer_shift_partial(keep, constraint_set)
        return S, trace, {"partial": True, "degenerate_modes": int(flags.sum())}
    if eps == "auto":
        if _is_covariance(as_signal_matrix(data)):
            eps_val = 0.0  # exact covariance supplied
        else:
            eps_val = 2.0 * spectral_gap(basis.vecs, constraint_set)
        S, lam, trace = infer_shift(basis, constraint_set, eps_val, objective,
                                    config)
        return S, trace, {"eps": eps_val}
    S, lam, trace = infer_shift(basis, constraint_set, float(eps), objective, config)
    return S, trace, {"eps": float(eps)}


# ---------------------------------------------------------------------------
# graph filter identification from non-stationary diffusion


def _eigh_psd(M):
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return np.maximum(vals, 0.0), vecs


def sqrt_psd(M) -> np.ndarray:
    """Principal square root by spectral factorization, eigenvalues
    clipped at zero against numerical PSD drift."""
    vals, vecs = _eigh_psd(as_matrix(M))
    return (vecs * np.sqrt(vals)) @ vecs.T


def inv_sqrt_pd(M) -> np.ndarray:
    vals, vecs = _eigh_psd(as_matrix(M))
    if vals.min() <= 1e-12 * max(1.0, vals.max()):
        raise SingularInputCovariance("input covariance must be positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.T


def psd_filter_recover(Sigma_x, Sigma_w) -> FilterEstimate:
    """Closed-form PSD filter solving H Sigma_w H = Sigma_x.

    H = Sigma_w^-1/2 (Sigma_w^1/2 Sigma_x Sigma_w^1/2)^1/2 Sigma_w^-1/2,
    unique under the positive-semidefiniteness assumption.
    """
    Sx = as_matrix(Sigma_x)
    Sw = as_matrix(Sigma_w)
    w_isqrt = inv_sqrt_pd(Sw)
    w_sqrt = sqrt_psd(Sw)
    mid = sqrt_psd(w_sqrt @ Sx @ w_sqrt)
    H = w_isqrt @ mid @ w_isqrt
    return FilterEstimate(0.5 * (H + H.T), psd=True, provenance="psd-closed-form")


def psd_filter_ls(Sigma_x_list, Sigma_w_list,
                  config: SolverConfig | None = None) -> FilterEstimate:
    """PSD-constrained least-squares filter fit across M processes.

    Minimizes the mean of || R_m - Q_m H Q_m ||_F^2 over H >= 0,
    with Q_m the square root of the m-th input covariance and R_m the
    square root of Q_m Sigma_x_m Q_m, by projected gradient descent on
    the PSD cone. With exact covariances and M = 1 this matches the
    closed form.
    """
    config = config or SolverConfig(max_iters=20000)
    Sx = [as_matrix(S) for S in Sigma_x_list]
    Sw = [as_matrix(S) for S in Sigma_w_list]
    m = len(Sx)
    if m < 1 or len(Sw) != m:
        raise BadInput("need matching, nonempty covariance lists")
    wts = np.full(m, 1.0 / m)
    wts = wts / wts.sum()  # m copies of fl(1/m) need not sum to exactly 1
    Q = [sqrt_psd(S) for S in Sw]
    R = [sqrt_psd(Q[k] @ Sx[k] @ Q[k]) for k in range(m)]
    lip = 2.0 * sum(w * np.linalg.eigvalsh(S)[-1] ** 2 for w, S in zip(wts, Sw))
    step = 1.0 / max(lip, 1e-12)
    # start from the weighted average of the per-process closed forms
    H = sum(w * psd_filter_recover(sx, sw).H for w, sx, sw in zip(wts, Sx, Sw))

    def objective(Hc):
        return sum(w * np.linalg.norm(R[k] - Q[k] @ Hc @ Q[k]) ** 2
                   for k, w in enumerate(wts))

    prev = objective(H)
    hist = [prev]
    for it in range(config.max_iters):
        grad = sum(2.0 * w * (Q[k] @ (Q[k] @ H @ Q[k] - R[k]) @ Q[k])
                   for k, w in enumerate(wts))
        vals, vecs = _eigh_psd(H - step * grad)
        H = (vecs * vals) @ vecs.T
        cur = objective(H)
        hist.append(cur)
        if abs(prev - cur) <= config.tol * max(1.0, abs(prev)):
            break
        prev = cur
    vals = np.linalg.eigvalsh(H)
    return FilterEstimate(H, psd=bool(vals.min() >= -1e-8),
                          provenance="psd-least-squares")


def sym_filter_select(Sigma_x_list, Sigma_w_list):
    """Symmetric (not necessarily PSD) filter identification by
    exhaustive search over eigenvalue sign patterns.

    Each process m admits 2^N symmetric solutions of
    H Sigma_w_m H = Sigma_x_m, parameterized by a sign vector; the
    returned signs minimize the summed pairwise distances between the
    per-process candidates. A single process is reported as
    non-identifiable (all candidates tie); the global sign of the
    winner is fixed by trace(H) >= 0. Returns (FilterEstimate, signs,
    info dict).
    """
    Sx = [as_matrix(S) for S in Sigma_x_list]
    Sw = [as_matrix(S) for S in Sigma_w_list]
    m = len(Sx)
    if m < 1 or len(Sw) != m:
        raise BadInput("need matching, nonempty covariance lists")
    n = Sx[0].shape[0]
    if n > SIGN_SEARCH_MAX_N:
        raise TooLarge(f"N = {n} exceeds the 2^N enumeration budget "
                       f"(max {SIGN_SEARCH_MAX_N}); use the PSD path or "
                       "fewer nodes")
    bases = []
    for k in range(m):
        w_isqrt = inv_sqrt_pd(Sw[k])
        w_sqrt = sqrt_psd(Sw[k])
        wxw = w_sqrt @ Sx[k] @ w_sqrt
        mu, V = _eigh_psd(wxw)
        V = fix_eigenvector_signs(V)
        P = w_isqrt @ (V * np.sqrt(mu))   # columns sqrt(mu_k) * Sw^-1/2 v_k
        Q = w_isqrt @ V
        A = np.einsum("ik,jk->ijk", P, Q).reshape(n * n, n)
        bases.append(A)
    signs = np.array(list(product((1.0, -1.0), repeat=n)))

    if m == 1:
        # every sign pattern reproduces Sigma_x exactly: report the tie
        H0 = (bases[0] @ np.ones(n)).reshape(n, n)
        resid = np.array([np.linalg.norm(
            (bases[0] @ s).reshape(n, n) @ Sw[0] @ (bases[0] @ s).reshape(n, n).T
            - Sx[0]) for s in signs[: min(len(signs), 4096)]])
        tie = bool(np.ptp(resid) <= 1e-8 * max(1.0, resid.max()))
        if np.trace(H0) < 0:
            H0 = -H0
        vals = np.linalg.eigvalsh(0.5 * (H0 + H0.T))
        est = FilterEstimate(0.5 * (H0 + H0.T), psd=bool(vals.min() >= -1e-8),
                             provenance="sign-search")
        return est, [np.ones(n)], {"identifiable": False, "all_tie": tie,
                                   "residual": 0.0}

    cands = [signs @ A.T for A in bases]  # row s: vec(H) for sign vector s

    def pairwise(idx):
        tot = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                tot += float(np.sum((cands[a][idx[a]] - cands[b][idx[b]]) ** 2))
        return tot

    # exact best pair for the first two processes, nearest-neighbor search
    from scipy.spatial import cKDTree

    tree = cKDTree(cands[0])
    dists, nearest = tree.query(cands[1], k=1)
    j1 = int(np.argmin(dists))
    idx = [int(nearest[j1]), j1] + [0] * (m - 2)
    # coordinate passes: each m picks its best candidate given the others
    best = None
    for _ in range(10):
        for a in range(m):
            others = [cands[b][idx[b]] for b in range(m) if b != a]
            target = np.mean(others, axis=0)
            d2 = np.sum((cands[a] - target) ** 2, axis=1)
            idx[a] = int(np.argmin(d2))
        cur = pairwise(idx)
        if best is not None and cur >= best - 1e-15:
            break
        best = cur
    H = np.mean([cands[a][idx[a]] for a in range(m)], axis=0).reshape(n, n)
    chosen = [signs[i].copy() for i in idx]
    if np.trace(H) < 0:
        H = -H
        chosen = [-s for s in chosen]
    H = 0.5 * (H + H.T)
    vals = np.linalg.eigvalsh(H)
    est = FilterEstimate(H, psd=bool(vals.min() >= -1e-8), provenance="sign-search")
    return est, chosen, {"identifiable": True, "residual": float(best)}


def network_deconvolve(T, constraint_set: ShiftConstraintSet | None = None,
                       eps: float = 0.0, objective: str = "l1",
                       config: SolverConfig | None = None):
    """Recover a direct-interaction shift from an indirect-relationship
    matrix expressible as an (unknown) analytic filter of the shift.

    Eigendecomposes T and selects eigenvalues over the constraint set -
    the same Step 2 used for stationary covariances, agnostic to the
    filter that produced T.
    """
    M = as_matrix(T)
    if np.abs(M - M.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(M).max()):
        raise NotSymmetric("deconvolution needs a symmetric relationship matrix")
    basis = eigendecompose(M)
    S, lam, trace = infer_shift(basis, constraint_set, eps, objective, config)
    return S, trace
