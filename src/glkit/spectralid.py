"""Topology inference from stationary or diffused signals.

Step 1 estimates the shift's eigenbasis (from the sample covariance for
stationary processes, from an identified filter for non-stationary
ones); Step 2 selects eigenvalues by convex optimization over a shift
constraint set. The filter of a non-stationary diffusion is identified
from pairs of output and input covariances: in closed form (PSD filter,
one process), by projected gradient (PSD, several processes), or by a
spectral relaxation over eigenvalue signs (symmetric, several
processes). Also hosts network deconvolution, which feeds the
eigenvectors of an indirect-relationship matrix through the same
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, BadInput, NotSymmetric, SingularInputCovariance
from .graphcore import (
    DEGENERACY_TOL,
    SpectralBasis,
    as_matrix,
    as_signal_matrix,
    eigendecompose,
    fix_eigenvector_signs,
)
from .solvers import ShiftConstraintSet, SolverConfig, admm_l1_spectral
from .statnet import _as_covariance, _is_covariance


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
    is at most ``DEGENERACY_TOL`` times N eps_mach ||Sigma||_2, the size
    of eigh's rounding error (Golub & Van Loan, Matrix Computations,
    8.1). Exactly repeated eigenvalues of a covariance (a complete or
    symmetric graph, white noise) come out at most 0.3 of that unit
    apart, while the closest distinct pair measured on diffusion
    covariances of ER graphs up to N = 200 was 976 units apart.
    """
    basis = eigendecompose(_as_covariance(data))
    unit = basis.n * np.finfo(float).eps * float(np.max(np.abs(basis.vals), initial=0.0))
    close = np.diff(basis.vals) <= DEGENERACY_TOL * unit
    flags = np.zeros(basis.n, dtype=bool)
    flags[1:] |= close
    flags[:-1] |= close
    return basis, flags


def infer_shift(basis, constraint_set: ShiftConstraintSet | None = None,
                eps: float | str = 0.0, objective: str = "l1",
                config: SolverConfig | None = None):
    """Recover a shift with the prescribed eigenbasis (Step 2).

    ``basis`` is a SpectralBasis or an orthonormal matrix of candidate
    eigenvectors. With eps = 0 the shift is constrained to be exactly
    diagonalized by the basis; eps > 0 allows a Frobenius-ball mismatch
    to absorb finite-sample noise in the eigenvectors, and eps="auto"
    sets it to twice the basis's feasibility gap
    (:func:`solvers.admm_l1_spectral`).
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

    ``eps="auto"`` solves at zero for an exact covariance input and
    otherwise at twice the feasibility gap of the estimated basis, as
    :func:`solvers.admm_l1_spectral` sets it; a numeric eps is used
    as-is. ``meta["eps"]`` is the eps solved at. Degenerate eigenvalue
    blocks in the covariance route the unambiguous eigenvectors to the
    partial-basis variant.
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
    if eps == "auto" and _is_covariance(as_signal_matrix(data)):
        eps = 0.0  # exact covariance supplied
    S, lam, trace = infer_shift(basis, constraint_set, eps, objective, config)
    return S, trace, {"eps": trace.notes["eps"]}


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
    config = config or SolverConfig()
    Sx, Sw = _covariance_lists(Sigma_x_list, Sigma_w_list)
    m = len(Sx)
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
    for _ in range(config.max_iters):
        grad = sum(2.0 * w * (Q[k] @ (Q[k] @ H @ Q[k] - R[k]) @ Q[k])
                   for k, w in enumerate(wts))
        vals, vecs = _eigh_psd(H - step * grad)
        H = (vecs * vals) @ vecs.T
        cur = objective(H)
        if abs(prev - cur) <= config.tol * max(1.0, abs(prev)):
            break
        prev = cur
    vals = np.linalg.eigvalsh(H)
    return FilterEstimate(H, psd=bool(vals.min() >= -1e-8),
                          provenance="psd-least-squares")


def sym_filter_select(Sigma_x_list, Sigma_w_list):
    """Symmetric (not necessarily PSD) filter identification by a
    spectral relaxation over eigenvalue sign patterns.

    Each process a admits 2^N symmetric solutions of
    H Sigma_w_a H = Sigma_x_a, H_a(s) = P_a diag(s) Q_a' for a sign
    vector s, with W_a Sigma_x_a W_a = V_a diag(mu_a) V_a',
    W_a = Sigma_w_a^1/2, P_a = W_a^-1 V_a diag(sqrt mu_a) and
    Q_a = W_a^-1 V_a. The summed pairwise distance
    sum_{a<b} ||H_a(s_a) - H_b(s_b)||_F^2 is s'Cs over the stacked signs,
    with diagonal blocks (M - 1) G_aa, off-diagonal blocks -G_ab and
    G_ab = (P_a'P_b) o (Q_a'Q_b). An eigenvalue mu_a,k at most
    1e-12 max(mu_a) is set to 0 (a singular Sigma_x_a, up to rounding);
    its sign changes no candidate, so it is left out of C and set to +1.
    The other signs are those of C's eigenvector for its smallest
    eigenvalue (a zero entry reads as +1); with exact covariances the
    true pattern has s'Cs = 0, so they are exact up to a global sign.
    H is the mean of the per-process candidates, its global sign fixed
    by trace(H) >= 0, and ``info["residual"]`` is their summed pairwise
    distance. A single process is reported as non-identifiable (every
    pattern reproduces Sigma_x) and returns the PSD root. Returns
    (FilterEstimate, one sign vector per process, info dict).
    """
    Sx, Sw = _covariance_lists(Sigma_x_list, Sigma_w_list)
    m, n = len(Sx), Sx[0].shape[0]
    P, Q, keep = [], [], []
    for sx, sw in zip(Sx, Sw):
        w_sqrt = sqrt_psd(sw)
        mu, V = _eigh_psd(w_sqrt @ sx @ w_sqrt)
        mu[mu <= 1e-12 * mu.max()] = 0.0  # a singular Sigma_x, up to rounding
        Q.append(inv_sqrt_pd(sw) @ fix_eigenvector_signs(V))
        P.append(Q[-1] * np.sqrt(mu))
        keep.append(mu > 0)
    # +1 wherever the sign changes no candidate: a zero eigenvalue, or a
    # single process, where every pattern reproduces Sigma_x (the PSD root)
    signs = np.ones(m * n)
    keep = np.concatenate(keep)
    if m > 1 and keep.any():
        G = [[(Pa.T @ Pb) * (Qa.T @ Qb) for Pb, Qb in zip(P, Q)]
             for Pa, Qa in zip(P, Q)]
        C = np.block([[(m - 1) * G[a][b] if a == b else -G[a][b] for b in range(m)]
                      for a in range(m)])[np.ix_(keep, keep)]
        signs[keep] = np.where(np.linalg.eigh(C)[1][:, 0] < 0, -1.0, 1.0)
    signs = signs.reshape(m, n)
    cands = [(Pa * s) @ Qa.T for Pa, Qa, s in zip(P, Q, signs)]
    resid = float(sum(np.sum((cands[a] - cands[b]) ** 2)
                      for a in range(m) for b in range(a + 1, m)))
    H = np.mean(cands, axis=0)
    if np.trace(H) < 0:
        H, signs = -H, -signs
    H = 0.5 * (H + H.T)
    est = FilterEstimate(H, psd=bool(np.linalg.eigvalsh(H).min() >= -1e-8),
                         provenance="sign-search")
    info = {"identifiable": m > 1}
    if m == 1:
        info["all_tie"] = True
    info["residual"] = resid
    return est, list(signs), info


def _covariance_lists(Sigma_x_list, Sigma_w_list):
    """The output and input covariance lists of the filter fits as square
    arrays: nonempty, of equal length, all N x N for one N."""
    Sx = [as_matrix(S) for S in Sigma_x_list]
    Sw = [as_matrix(S) for S in Sigma_w_list]
    if not Sx or len(Sw) != len(Sx):
        raise BadInput("need matching, nonempty covariance lists")
    sizes = {S.shape[0] for S in Sx + Sw}
    if len(sizes) > 1:
        raise BadDimension(f"covariances of different sizes {sorted(sizes)}")
    return Sx, Sw


def network_deconvolve(T, constraint_set: ShiftConstraintSet | None = None,
                       eps: float | str = 0.0, objective: str = "l1",
                       config: SolverConfig | None = None):
    """Recover a direct-interaction shift from an indirect-relationship
    matrix expressible as an (unknown) analytic filter of the shift.

    Eigendecomposes T and selects eigenvalues over the constraint set -
    the same Step 2 used for stationary covariances (eps as in
    :func:`infer_shift`, "auto" included), agnostic to the filter that
    produced T.
    """
    M = as_matrix(T)
    if np.abs(M - M.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(M).max()):
        raise NotSymmetric("deconvolution needs a symmetric relationship matrix")
    basis = eigendecompose(M)
    S, lam, trace = infer_shift(basis, constraint_set, eps, objective, config)
    return S, trace
