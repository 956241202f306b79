"""Statistical topology inference.

Correlation and partial-correlation networks with Fisher tests and
Benjamini-Hochberg FDR control, the graphical lasso and the Laplacian-
constrained GMRF (Egilmez, Pavez & Ortega, IEEE JSTSP 2017; both on
:func:`glkit.solvers.logdet_prox_gradient`), and neighborhood lasso selection
(the N node regressions as one shared-Gram
:func:`glkit.solvers.lasso_cd_gram` call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameter,
    NoMLE,
    SingularCovariance,
    TooFewSamples,
)
from .graphcore import (
    ShiftKind,
    ShiftOperator,
    as_signal_matrix,
    edge_index,
    laplacian_from_weights,
    weights_from_edge_vector,
)
from .solvers import (
    SolverConfig,
    lasso_cd_gram,
    logdet_prox_gradient,
    soft_threshold,
)


@dataclass
class TestTable:
    """Per-pair test results of the hypothesis-testing learners as
    read-only columns, one entry per pair i < j in :func:`edge_index`
    order: ``i``, ``j`` (views of that index), the Fisher
    ``statistic``, its two-sided ``p_value`` and the Benjamini-Hochberg
    ``reject``."""

    i: np.ndarray
    j: np.ndarray
    statistic: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray
    method: str
    q: float
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("i", "j", "statistic", "p_value", "reject"):
            col = np.asarray(getattr(self, name)).view()  # caller's stays writable
            col.flags.writeable = False
            setattr(self, name, col)
        if not np.all((self.p_value >= 0.0) & (self.p_value <= 1.0)):
            raise BadParameter("p-values must lie in [0, 1]")


def sample_covariance(X, centered: bool = False) -> np.ndarray:
    """Empirical covariance (1/P) sum_p x_p x_p', optionally after
    removing the per-vertex sample mean."""
    X = as_signal_matrix(X)
    p = X.shape[1]
    if p < 1 or (centered and p < 2):
        raise TooFewSamples("covariance needs at least one sample (two if centering)")
    if centered:
        X = X - X.mean(axis=1, keepdims=True)
    return (X @ X.T) / p


def bh_select(p_values, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up: reject the largest prefix of the
    sorted p-values with p_(i) <= (i/m) q. Returns a boolean mask in the
    original order."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    thresh = q * (np.arange(1, m + 1) / m)
    passing = np.nonzero(p[order] <= thresh)[0]
    reject = np.zeros(m, dtype=bool)
    if passing.size:
        reject[order[: passing[-1] + 1]] = True
    return reject


def _fisher_pvalues(rho, null_var: float):
    """Two-sided p-values of atanh(rho) under Normal(0, null_var);
    saturated coefficients (|rho| = 1) get p = 0.

    erfc is the standard library's (the C library's, within 1 ulp),
    taken element by element, so that the tests do not import
    scipy.special: that import outweighs the rest of a command-line
    ``glk learn corr`` call.
    """
    rho = np.asarray(rho, dtype=float)
    sat = np.abs(rho) >= 1.0 - 1e-12
    z = np.arctanh(np.clip(rho, -1.0 + 1e-12, 1.0 - 1e-12))
    x = np.abs(z) / np.sqrt(2.0 * null_var)
    pvals = np.fromiter(map(math.erfc, x.tolist()), dtype=float, count=x.size)
    pvals[sat] = 0.0
    z[sat] = np.sign(rho[sat]) * np.inf
    return z, pvals, sat


def _build_table(rho, null_var, q, method, n):
    iu, ju = edge_index(n)
    r = rho[iu, ju]
    z, pvals, sat = _fisher_pvalues(r, null_var)
    reject = bh_select(pvals, q)
    hits = np.flatnonzero(sat)
    flags = {"saturated_pairs": list(zip(iu[hits].tolist(), ju[hits].tolist()))}
    table = TestTable(iu, ju, z, pvals, reject, method, q, flags)
    W = weights_from_edge_vector(np.where(reject, np.abs(r), 0.0), n)
    return table, ShiftOperator(W, ShiftKind.ADJACENCY)


def correlation_network(X, q: float = 0.05):
    """Edges where the Pearson correlation tests nonzero at FDR level q.

    Fisher statistics z_ij = atanh(rho_ij) are compared against their
    approximate Normal(0, 1/(P-3)) null; the Benjamini-Hochberg step-up
    rule selects the edge set and accepted pairs are weighted |rho_ij|.
    """
    if not 0 < q < 1:
        raise BadParameter(f"FDR level q must lie in (0, 1), got {q!r}")
    X = as_signal_matrix(X)
    n, p = X.shape
    if p <= 3:
        raise TooFewSamples("correlation test needs P >= 4")
    cov = sample_covariance(X, centered=True)
    d = np.sqrt(np.diag(cov))
    d = np.where(d > 0, d, 1.0)  # constant rows correlate with nothing
    rho = cov / np.outer(d, d)
    rho[np.diag(cov) == 0, :] = 0.0
    rho[:, np.diag(cov) == 0] = 0.0
    return _build_table(rho, 1.0 / (p - 3), q, "correlation", n)


def partial_correlation_network(X, q: float = 0.05, ridge: bool = False):
    """Same testing pipeline on partial correlations from the inverse
    sample covariance; the Fisher null variance carries the 1/(P-N-1)
    degrees-of-freedom correction (an approximation, documented).

    With ``ridge`` a diagonal load of 1e-3 trace/N rescues singular
    covariances; otherwise they raise SingularCovariance.
    """
    if not 0 < q < 1:
        raise BadParameter(f"FDR level q must lie in (0, 1), got {q!r}")
    X = as_signal_matrix(X)
    n, p = X.shape
    if p <= n + 1:
        raise TooFewSamples("partial-correlation test needs P >= N + 2")
    cov = sample_covariance(X, centered=True)
    vals = np.linalg.eigvalsh(cov)
    if vals.min() <= 1e-12 * max(vals.max(), 1.0):
        if not ridge:
            raise SingularCovariance(
                "sample covariance is singular; pass ridge=True to regularize")
        cov = cov + (1e-3 * np.trace(cov) / n) * np.eye(n)
    rho = population_partial_correlations(np.linalg.inv(cov))
    return _build_table(rho, 1.0 / (p - n - 1), q, "partial-correlation", n)


def population_partial_correlations(Theta) -> np.ndarray:
    """Partial correlations -theta_ij / sqrt(theta_ii theta_jj) from an
    exact precision matrix (population-level helper)."""
    Theta = np.asarray(Theta, dtype=float)
    d = np.sqrt(np.diag(Theta))
    return -Theta / np.outer(d, d)


def auto_lambda(n: int, p: int) -> float:
    """Penalty rate 2 sqrt(log N / P) used for consistent support recovery."""
    return 2.0 * np.sqrt(np.log(n) / p)


def _as_covariance(data) -> np.ndarray:
    """Signals (SignalSet or N x P array) -> sample covariance; a square
    array symmetric to 1e-10 of its largest entry passes through as the
    covariance itself."""
    M = as_signal_matrix(data)
    if M.ndim == 2 and M.shape[0] == M.shape[1] and \
            np.abs(M - M.T).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(M).max()):
        return M
    return sample_covariance(M)


def graphical_lasso(data, lam: float, penalize_diagonal: bool = False,
                    config: SolverConfig | None = None):
    """l1-penalized Gaussian maximum-likelihood precision estimation.

    Minimizes -logdet(T) + trace(S T) + lam ||T||_1 (diagonal
    unpenalized unless ``penalize_diagonal``) by one
    :func:`glkit.solvers.logdet_prox_gradient` call over T's entries,
    soft thresholding as the prox, from T = diag(1 / (S_ii + w_ii)): every
    iterate is symmetric, positive definite and exactly 0 where
    thresholded. ``data`` is a SignalSet (covariance with divisor P) or a
    covariance. Returns (Theta, trace). Raises NoMLE for a singular
    covariance with lam = 0 or a zero-variance unpenalized vertex.
    """
    if not 0 <= lam < np.inf:
        raise BadParameter(f"lam must be a finite number >= 0, got {lam!r}")
    config = config or SolverConfig()
    S = _as_covariance(data)
    n = S.shape[0]
    w = np.full(n * n, float(lam))  # the penalty weights of T's entries
    if not penalize_diagonal:
        w[:: n + 1] = 0.0
    start = np.diag(S) + w[:: n + 1]
    if not np.all(start > 0):
        raise NoMLE(f"zero variance at unpenalized vertex {int(np.argmin(start))}: no MLE")
    if lam == 0 and np.linalg.eigvalsh(S).min() <= 1e-12 * max(1.0, np.abs(S).max()):
        raise NoMLE("singular covariance with lam = 0: the MLE does not exist")
    # tr(S T) = tr(sym(S) T) for symmetric T; a symmetric gradient keeps
    # every iterate symmetric to the bit. The first step is the smallest
    # inverse curvature T_ii^2 of the start's diagonal.
    x, trace = logdet_prox_gradient(
        lambda x: x.reshape(n, n), lambda C: (0.5 * (C + C.T)).ravel(),
        (0.5 * (S + S.T)).ravel(), lambda v, t: soft_threshold(v, t * w),
        lambda x: float(w @ np.abs(x)), np.diag(1.0 / start).ravel(),
        float(np.min(1.0 / start)) ** 2, config)
    return x.reshape(n, n), trace


def laplacian_gmrf(data, lam: float, config: SolverConfig | None = None):
    """Precision estimation constrained to Theta = L(w) + gamma I.

    Minimizes -logdet(Theta) + trace(S Theta) + lam ||Theta||_1 over the
    edge weights w >= 0 of the Laplacian L(w) and the load gamma >= 0,
    where ||Theta||_1 = 4 sum(w) + N gamma is linear: one
    :func:`glkit.solvers.logdet_prox_gradient` call over x = (w, gamma),
    the prox a projection onto x >= 0, from w = 0, gamma = N / (trace(S)
    + N lam). Returns (L as a Laplacian shift, gamma, trace).
    """
    if not 0 <= lam < np.inf:
        raise BadParameter(f"lam must be a finite number >= 0, got {lam!r}")
    config = config or SolverConfig()
    S = _as_covariance(data)
    n = S.shape[0]
    iu, ju = edge_index(n)
    # trace(S L(w)) and the penalty are both linear in x = (w, gamma)
    lin = np.append(S[iu, iu] + S[ju, ju] - 2.0 * S[iu, ju] + 4.0 * lam,
                    np.trace(S) + n * lam)
    if lin[-1] <= 0:
        raise NoMLE("zero covariance with lam = 0: the MLE does not exist")

    def theta(x):
        W = weights_from_edge_vector(x[:-1], n)
        return np.diag(W.sum(axis=1) + x[-1]) - W

    def adjoint(C):
        d = np.diag(C)
        return np.append(d[iu] + d[ju] - 2.0 * C[iu, ju], d.sum())

    x = np.zeros(iu.size + 1)
    x[-1] = n / lin[-1]
    # the first step is the inverse curvature in gamma at the start
    x, trace = logdet_prox_gradient(theta, adjoint, lin, lambda v, t: np.maximum(v, 0.0),
                                    lambda x: 0.0, x, x[-1] ** 2 / n, config)
    return laplacian_from_weights(weights_from_edge_vector(x[:-1], n)), float(x[-1]), trace


def neighborhood_lasso(X, lam: float, rule: str = "or",
                       config: SolverConfig | None = None):
    """Per-node lasso regressions combined into an edge set.

    Node i's signal is regressed on all other rows; the support of the
    coefficient vector proposes i's neighborhood, and the OR (either
    direction) or AND (both directions) rule symmetrizes the proposals.
    The N regressions share the Gram matrix X X' and run as one
    :func:`lasso_cd_gram` call with the diagonal masked off. Returns (an
    unweighted adjacency, the full coefficient table B[i, j] = weight of
    x_j in the regression of x_i, the lasso's trace).
    """
    if rule not in ("or", "and"):
        raise BadParameter(f"unknown combination rule {rule!r}")
    X = as_signal_matrix(X)
    n, p = X.shape
    if p < 2:
        raise TooFewSamples("neighborhood regression needs P >= 2")
    G = X @ X.T
    B, trace = lasso_cd_gram(G, G, lam, config, const_term=0.5 * np.diag(G),
                             mask=~np.eye(n, dtype=bool))
    nz = B != 0
    edges = (nz | nz.T) if rule == "or" else (nz & nz.T)
    W = edges.astype(float)
    np.fill_diagonal(W, 0.0)
    return ShiftOperator(W, ShiftKind.ADJACENCY), B, trace
