"""Directed and dynamic topology inference.

Static structural-equation fitting, per-lag sparse vector
autoregression with OR/AND edge rules, and exponentially-weighted
tracking of time-varying structural equation models. Each fit (each
epoch, for the tracker) solves its N node regressions as one
shared-Gram :func:`glkit.solvers.lasso_cd_gram` call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, BadParameter, TooFewSamples
from .graphcore import ShiftKind, ShiftOperator
from .solvers import SolveTrace, SolverConfig, lasso_cd_gram


@dataclass(frozen=True)
class CascadeData:
    """Endogenous signals with aligned exogenous inputs.

    ``X`` is N x T (single cascade) or N x T x C. ``U`` is either shaped
    like ``X`` or N x C (per-cascade inputs, constant over time, the
    usual cascade convention); a single-cascade N x T ``U`` pairs with a
    2-D ``X``.
    """

    X: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        U = np.asarray(self.U, dtype=float)
        if X.ndim == 2:
            X = X[:, :, None]
            if U.ndim == 2 and U.shape == X.shape[:2]:
                U = U[:, :, None]
        if X.ndim != 3:
            raise BadDimension("X must be N x T or N x T x C")
        n, t, c = X.shape
        if U.ndim == 2 and U.shape == (n, c):
            U = np.repeat(U[:, None, :], t, axis=1)
        if U.shape != X.shape:
            raise BadDimension("exogenous inputs do not align with X")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(U))):
            raise BadParameter("cascade data must be finite")
        Xr = np.ascontiguousarray(X)
        Ur = np.ascontiguousarray(U)
        Xr.flags.writeable = False
        Ur.flags.writeable = False
        object.__setattr__(self, "X", Xr)
        object.__setattr__(self, "U", Ur)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def t(self) -> int:
        return self.X.shape[1]

    @property
    def c(self) -> int:
        return self.X.shape[2]


@dataclass
class GraphTrajectory:
    """Per-epoch estimates of a time-varying directed graph; ``trace`` is the
    worst epoch's (capped, then largest KKT residual), sweeps summed."""

    times: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    edge_counts: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    trace: SolveTrace | None = None

    def append(self, t: int, W: np.ndarray, objective: float):
        if np.abs(np.diag(W)).max(initial=0.0) != 0.0:
            raise BadParameter("tracked W must have an exactly zero diagonal")
        self.times.append(int(t))
        self.weights.append(W)
        self.edge_counts.append(int(np.count_nonzero(W)))
        self.objectives.append(float(objective))


def _sem_gram(data: CascadeData):
    """Joint Gram of the stacked [x; u] samples."""
    flat = np.concatenate([data.X, data.U], axis=0).reshape(2 * data.n, -1)
    return flat @ flat.T


def _sem_solve_nodes(G, n, lam, config, beta0=None):
    """All N node regressions off a joint [x; u] Gram matrix, as one
    :func:`lasso_cd_gram` call.

    Row i regresses x_i on the other N-1 signals plus its own exogenous
    input u_i: its own signal and the other inputs are masked off, and
    the l1 penalty applies to the signal block only. Returns (W, omega,
    N x 2N coefficient table, trace)."""
    eye = np.eye(n, dtype=bool)
    B, trace = lasso_cd_gram(G, G[:n], lam, config,
                             penalty_weights=np.repeat([1.0, 0.0], n), beta0=beta0,
                             const_term=0.5 * np.diag(G)[:n],
                             mask=np.hstack([~eye, eye]))
    return B[:, :n].copy(), np.diag(B[:, n:]).copy(), B, trace


def sem_fit(data: CascadeData, alpha: float,
            config: SolverConfig | None = None):
    """Sparse structural-equation fit by row-decoupled penalized LS.

    Estimates W and the exogenous loadings from
    sum_t ||x_t - W x_t - Omega u_t||^2 + alpha ||W||_1 with W_ii = 0
    enforced exactly (node i never sees its own signal as a regressor)
    and the loadings unpenalized; the N row regressions are one
    :func:`lasso_cd_gram` call on the joint [x; u] Gram. Returns
    (W shift, omega, trace); the trace has the rows' status, counts the
    most sweeps any row took and logs the criterion above at the
    returned (W, omega).
    """
    if not 0 <= alpha < np.inf:
        raise BadParameter(f"alpha must be a finite number >= 0, got {alpha!r}")
    G = _sem_gram(data)
    # the squared-loss criterion carries no 1/2, so the coordinate
    # descent (which minimizes 0.5 LS + lam l1) gets lam = alpha / 2
    W, omega, _, rows = _sem_solve_nodes(G, data.n, alpha / 2.0, config)
    trace = SolveTrace(status=rows.status, iters_used=max(rows.notes["sweeps"]))
    trace.log(2.0 * sum(rows.notes["objectives"]))
    return ShiftOperator(W, ShiftKind.GENERIC, directed=True), omega, trace


def svarm_fit(X, n_lags: int, lam: float, rule: str = "or",
              config: SolverConfig | None = None):
    """Sparse vector autoregression with per-lag lasso penalties.

    Per node, regresses x_i[t] on the stacked lagged signals of all
    nodes; the N regressions share the lagged Gram and run as one
    :func:`lasso_cd_gram` call. A directed edge j -> i is declared when
    the lag coefficients w_ij^(l) are nonzero for at least one lag (OR)
    or for every lag (AND). Returns (edge matrix E with E[i, j] = j
    influences i, list of per-lag weight matrices, the lasso's trace).
    """
    if rule not in ("or", "and"):
        raise BadParameter(f"unknown combination rule {rule!r}")
    if n_lags < 1:
        raise BadParameter("the lag order must be at least 1")
    X = np.asarray(X, dtype=float)
    n, t = X.shape
    if t <= n_lags + 1:
        raise TooFewSamples("series too short for the requested lag order")
    rows = []
    for lag in range(1, n_lags + 1):
        rows.append(X[:, n_lags - lag: t - lag])
    A = np.concatenate(rows, axis=0).T          # (T - L) x (N L)
    Y = X[:, n_lags:]                           # targets
    B, trace = lasso_cd_gram(A.T @ A, Y @ A, lam, config,
                             const_term=0.5 * (Y * Y).sum(axis=1))
    Ws = [B[:, lag * n:(lag + 1) * n] for lag in range(n_lags)]
    nz = [W != 0 for W in Ws]
    edges = nz[0]
    for mask in nz[1:]:
        edges = (edges | mask) if rule == "or" else (edges & mask)
    edges = edges.copy()
    np.fill_diagonal(edges, False)
    return edges, Ws, trace


def dynamic_sem_track(data: CascadeData, gamma: float, alpha: float,
                      config: SolverConfig | None = None,
                      emit_every: int = 1) -> GraphTrajectory:
    """Online tracking of a time-varying SEM by exponentially-weighted LS.

    At every epoch the weighted Gram and cross moments are updated
    recursively (old information discounted by ``gamma``) and the N row
    regressions restart from the previous estimate, one
    :func:`lasso_cd_gram` call per epoch; epochs stopped at the sweep cap
    warn once per run. With gamma = 1 the final epoch reproduces the batch
    fit on all the data."""
    if not (0.0 < gamma <= 1.0):
        raise BadParameter("forgetting factor must lie in (0, 1]")
    if not 0 <= alpha < np.inf:
        raise BadParameter(f"alpha must be a finite number >= 0, got {alpha!r}")
    if emit_every < 1:
        raise BadParameter("emit_every must be at least 1")
    if data.t < 1:
        raise TooFewSamples("tracking needs at least one epoch")
    n = data.n
    G = np.zeros((2 * n, 2 * n))
    traj = GraphTrajectory()
    B, worst, sweeps, capped = None, None, 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the capped epochs warn once, below
        for t in range(data.t):
            At = np.concatenate([data.X[:, t, :], data.U[:, t, :]], axis=0)
            G = gamma * G + At @ At.T
            W, _, B, trace = _sem_solve_nodes(G, n, alpha / 2.0, config, beta0=B)
            sweeps, capped = sweeps + trace.iters_used, capped + (not trace.converged)
            worst = min(worst or trace, trace, key=lambda tr: (tr.converged, -tr.kkt_residual))
            if (t + 1) % emit_every == 0 or t == data.t - 1:
                traj.append(t, W, 2.0 * sum(trace.notes["objectives"]))
    worst.iters_used, traj.trace = sweeps, worst
    worst.stop(worst.status, "dynamic_sem_track", f"its {(config or SolverConfig()).max_iters}"
               f"-sweep cap in {capped} of {data.t} epochs")
    return traj
