"""Topology inference from stationary or diffused signals.

Step 1 estimates the shift's eigenbasis (from the sample covariance for
stationary processes, from an identified filter for non-stationary
ones); Step 2 selects eigenvalues by convex optimization over a shift
constraint set (:func:`solvers.infer_shift`, re-exported here). The
filter of a non-stationary diffusion is identified from pairs of output
and input covariances: in closed form (PSD filter, one process), by
proximal gradient on the PSD cone (several processes), or by a spectral
relaxation over eigenvalue signs (symmetric, several processes). Also
hosts network deconvolution, which feeds the eigenvectors of an
indirect-relationship matrix through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, BadInput, NotSymmetric, SingularInputCovariance
from .graphcore import (
    DEGENERACY_TOL,
    SYM_TOL,
    as_matrix,
    eigendecompose,
    fix_eigenvector_signs,
    sqrt_psd,
)
from .solvers import ShiftConstraintSet, SolverConfig, infer_shift, prox_gradient
from .statnet import _as_covariance


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

    ``data`` is a SignalSet / N x P matrix, or a covariance, exact or
    sampled (a symmetric square matrix). Returns the
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


def infer_shift_from_signals(data, constraint_set: ShiftConstraintSet | None = None,
                             eps="auto", objective: str = "l1",
                             config: SolverConfig | None = None):
    """End-to-end stationary pipeline: covariance eigenvectors, then
    eigenvalue selection.

    ``eps="auto"`` is chosen by :func:`solvers.infer_shift` from the
    estimated basis alone: 0 when the set has a member that the basis
    diagonalizes exactly, else twice the feasibility gap; a numeric eps
    is used as-is. ``meta["eps"]`` is the eps solved at. Degenerate
    eigenvalue blocks in the covariance leave the solve, at eps = 0, the
    unambiguous eigenvectors as a partial basis, which takes the l1 and
    sup-norm objectives only: the Frobenius objective falls back to l1
    there, and ``meta["objective"]`` says so.
    """
    basis, flags = estimate_eigenbasis(data)
    if flags.any() and (eps == "auto" or eps == 0):
        # a fully degenerate spectrum leaves no spectral constraint at all
        # (K = 0) and the member of the constraint set least in the norm comes back
        meta = {"partial": True, "degenerate_modes": int(flags.sum())}
        if objective == "frobenius":
            objective = meta["objective"] = "l1"
        S, _, trace = infer_shift(basis.vecs[:, ~flags], constraint_set, 0.0, objective, config)
        return S, trace, meta
    S, _, trace = infer_shift(basis, constraint_set, eps, objective, config)
    return S, trace, {"eps": trace.notes["eps"]}


# ---------------------------------------------------------------------------
# graph filter identification from non-stationary diffusion


def _eigh_psd(M):
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    return np.maximum(vals, 0.0), vecs


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
    (Sx,), (Sw,) = _covariance_lists([Sigma_x], [Sigma_w])
    W, W_inv = sqrt_psd(Sw), inv_sqrt_pd(Sw)
    H = W_inv @ sqrt_psd(W @ Sx @ W) @ W_inv
    return FilterEstimate(0.5 * (H + H.T), psd=True, provenance="psd-closed-form")


def psd_filter_ls(Sigma_x_list, Sigma_w_list, config: SolverConfig | None = None):
    """PSD-constrained least-squares filter fit across M processes.

    Minimizes the mean of || R_m - Q_m H Q_m ||_F^2 over H >= 0,
    with Q_m the square root of the m-th input covariance and R_m the
    square root of Q_m Sigma_x_m Q_m, by one
    :func:`solvers.prox_gradient` call with the projection onto the PSD
    cone as prox, from the mean H0 of the per-process closed forms. The
    misfit is divided by L max|H0|^2, L its gradient's Lipschitz
    constant, and the first step is max|H0|^2 (1/L unscaled): the
    kernel's residual reads about max|dH| / max|H| at any scale of the
    covariances. With exact covariances and M = 1 the start is optimal
    and no step is taken. Status, ``kkt_residual`` and warnings are the
    kernel's. Returns (FilterEstimate, SolveTrace).
    """
    config = config or SolverConfig()
    Sx, Sw = _covariance_lists(Sigma_x_list, Sigma_w_list)
    m, n = len(Sx), Sx[0].shape[0]
    Q = [sqrt_psd(S) for S in Sw]
    R = [sqrt_psd(q @ s @ q) for q, s in zip(Q, Sx)]
    H = sum(psd_filter_recover(sx, sw).H for sx, sw in zip(Sx, Sw)) / m
    h2 = float(np.abs(H).max()) ** 2 or 1.0
    k = 2.0 * h2 * sum(np.linalg.eigvalsh(S)[-1] ** 2 for S in Sw)  # M L max|H0|^2

    def misfit(x):
        E = [q @ x.reshape(n, n) @ q - r for q, r in zip(Q, R)]
        return (sum(float(np.sum(e * e)) for e in E) / k,
                lambda: (2.0 / k * sum(q @ e @ q for q, e in zip(Q, E))).ravel())

    def project(v, t):
        vals, vecs = _eigh_psd(v.reshape(n, n))
        return ((vecs * vals) @ vecs.T).ravel()

    x, trace = prox_gradient(misfit, project, lambda x: 0.0, H.ravel(), h2, config)
    H = x.reshape(n, n)
    return FilterEstimate(H, psd=bool(np.linalg.eigvalsh(H).min() >= -1e-8),
                          provenance="psd-least-squares"), trace


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
    arrays: nonempty, of equal length, all N x N for one N, each
    symmetric to graphcore's relative SYM_TOL."""
    Sx = [as_matrix(S) for S in Sigma_x_list]
    Sw = [as_matrix(S) for S in Sigma_w_list]
    if not Sx or len(Sw) != len(Sx):
        raise BadInput("need matching, nonempty covariance lists")
    sizes = {S.shape[0] for S in Sx + Sw}
    if len(sizes) > 1:
        raise BadDimension(f"covariances of different sizes {sorted(sizes)}")
    if any(np.abs(S - S.T).max() > SYM_TOL * max(1.0, np.abs(S).max()) for S in Sx + Sw):
        raise NotSymmetric("covariances must be symmetric")
    return Sx, Sw


def network_deconvolve(T, constraint_set: ShiftConstraintSet | None = None,
                       eps: float | str = 0.0, objective: str = "l1",
                       config: SolverConfig | None = None):
    """Recover a direct-interaction shift from an indirect-relationship
    matrix expressible as an (unknown) analytic filter of the shift.

    Eigendecomposes T and selects eigenvalues over the constraint set -
    the same Step 2 used for stationary covariances (eps as in
    :func:`solvers.infer_shift`, "auto" included), agnostic to the
    filter that produced T.
    """
    M = as_matrix(T)
    if np.abs(M - M.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(M).max()):
        raise NotSymmetric("deconvolution needs a symmetric relationship matrix")
    basis = eigendecompose(M)
    S, _, trace = infer_shift(basis, constraint_set, eps, objective, config)
    return S, trace
