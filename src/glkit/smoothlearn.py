"""Graph learning under smoothness priors.

Covers the alternating factor-analysis learner (joint denoising +
Laplacian fit), the log-degree-barrier weight learner, and exact
cardinality-constrained edge selection. The log-barrier learner is one
call of the edge-weight engine :func:`glkit.solvers.primal_dual_graph`
(Newton on the N-variable dual); each Laplacian step of the alternating
learner is the Euclidean projection onto the trace-N Laplacians, which
runs on the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInput, BadK, BadParameter, Infeasible
from .graphcore import (
    ShiftKind,
    as_signal_matrix,
    build_shift,
    edge_index,
    laplacian_from_weights,
)
from .solvers import (
    DegreeTerm,
    SolveTrace,
    SolverConfig,
    _project_laplacian,
    primal_dual_graph,
)

DONG_OUTER_TOL = 1e-6         # relative objective change that ends dong_learn
EDGE_SELECT_OUTER_ITERS = 50  # alternations of edge_select_noisy at most


@dataclass(frozen=True)
class DistanceMatrix:
    """Squared-Euclidean distances between vertex signal profiles."""

    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise BadInput("distance matrix must be square")
        if not np.isfinite(Z).all():
            raise BadInput("distances must be finite")
        if np.abs(Z - Z.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(Z).max()):
            raise BadInput("distance matrix must be symmetric")
        if np.abs(np.diag(Z)).max(initial=0.0) > 1e-12 * max(1.0, np.abs(Z).max()):
            raise BadInput("distance matrix must have zero diagonal")
        if Z.min(initial=0.0) < -1e-12:
            raise BadInput("distances must be nonnegative")
        Zc = Z.copy()
        np.fill_diagonal(Zc, 0.0)
        Zc = np.maximum(0.5 * (Zc + Zc.T), 0.0)
        Zc.flags.writeable = False
        object.__setattr__(self, "Z", Zc)

    @property
    def n(self) -> int:
        return self.Z.shape[0]


def distance_matrix(X) -> DistanceMatrix:
    """Z_ij = || row_i(X) - row_j(X) ||^2.

    Ties smoothness to sparsity: for any weight matrix W with Laplacian
    L, the summed Dirichlet energy trace(X' L X) equals 0.5 ||W o Z||_1.
    Each entry sums squared differences, not the Gram identity, so
    identical rows are exactly zero apart and ties rank exactly.
    """
    X = as_signal_matrix(X)
    if not np.isfinite(X).all():
        raise BadInput("signals must be finite")
    n = X.shape[0]
    Z = np.zeros((n, n))
    diff = np.empty_like(X)
    for i in range(n - 1):  # row i against the rows after it
        d = np.subtract(X[i + 1:], X[i], out=diff[i + 1:])
        Z[i, i + 1:] = np.einsum("ij,ij->i", d, d)
    return DistanceMatrix(Z + Z.T)


def as_distance(Z) -> DistanceMatrix:
    return Z if isinstance(Z, DistanceMatrix) else DistanceMatrix(np.asarray(Z, float))


def kalofolias_learn(Z, alpha: float, beta: float,
                     config: SolverConfig | None = None):
    """Weight learning with a log barrier on the degree vector.

    Minimizes ||W o Z||_1 - alpha 1' log(W 1) + beta/2 ||W||_F^2 over
    symmetric nonnegative zero-diagonal W. The barrier keeps every
    nodal degree strictly positive; beta = 0 yields the sparsest graph
    over a beta-grid on the same distances.
    """
    if not 0 < alpha < np.inf:
        raise BadParameter(f"alpha must be a finite number > 0, got {alpha!r}")
    if not 0 <= beta < np.inf:
        raise BadParameter(f"beta must be a finite number >= 0, got {beta!r}")
    Z = as_distance(Z).Z
    iu, ju = edge_index(Z.shape[0])
    # The problem is scale equivariant: solving at Z/c with beta/c^2 and
    # dividing the weights by c reproduces the original solution, so the
    # engine always sees distances of unit mean (much better conditioned).
    c = max(float(Z[iu, ju].mean()), 1.0) if Z[iu, ju].size else 1.0
    # engine objective over the upper-triangle vector w is
    # 2 z'w + g(Bw) + b ||w||^2: ||W o Z||_1 = 2 z'w and
    # beta/2 ||W||_F^2 = beta ||w||^2
    W, trace = primal_dual_graph(Z / c, DegreeTerm("log_barrier", alpha),
                                 beta / c ** 2, config)
    W = W / c
    if trace.objective:
        shift = alpha * Z.shape[0] * np.log(c)
        trace.objective = [v + shift for v in trace.objective]
    return W, trace


def _dong_objective(X, Y, W, Z_y, alpha, beta):
    fit = float(np.linalg.norm(X - Y) ** 2)
    smooth = 0.5 * float((W * Z_y).sum())
    deg = W.sum(axis=1)
    frob = 0.5 * float(deg @ deg + (W * W).sum())  # ||L||_F^2 / 2 for L = diag(deg) - W
    return fit + alpha * smooth + beta * frob


def dong_learn(X, alpha: float, beta: float,
               config: SolverConfig | None = None, outer_iters: int = 100):
    """Joint denoising and Laplacian learning by alternating minimization.

    Minimizes ||X - Y||_F^2 + alpha trace(Y' L Y) + beta/2 ||L||_F^2
    subject to L being a combinatorial Laplacian with trace N. The
    Y step is the closed-form low-pass smoother (I + alpha L)^-1 X (one
    dense factorization reused across columns). With Z the distances of
    Y, the L step minimises alpha/2 ||W o Z||_1 + beta/2 ||L||_F^2, which
    is beta/2 ||S - L||_F^2 + const for S = alpha/(2 beta) Z: the
    projection of S onto the trace-N Laplacians, solved by the
    edge-weight engine under ``config``. The outer objective is
    non-increasing; an iteration that fails to improve it is rolled back
    and the loop stops, as it does once the objective falls by at most
    ``DONG_OUTER_TOL`` relative. ``trace.notes["l_step_converged"]``
    lists each L step's engine flag, and ``trace.converged`` holds only
    when the objective rule stopped the loop and the last accepted L
    step met the engine's rule. Returns (L, Y, trace). Raises
    Infeasible for N < 2: no Laplacian with trace N exists on one vertex.
    """
    if not (0 < alpha < np.inf and 0 < beta < np.inf):
        raise BadParameter(f"alpha, beta must be finite and > 0: {alpha!r}, {beta!r}")
    X = as_signal_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise Infeasible("a trace-N Laplacian needs at least two vertices")
    config = config or SolverConfig()
    Y = X.copy()
    Z_y = distance_matrix(Y).Z
    trace = SolveTrace()
    best = np.inf
    L = laplacian_from_weights(np.zeros((n, n)))
    l_steps = trace.notes["l_step_converged"] = []
    for outer in range(outer_iters):
        W_new, l_trace = _project_laplacian(Z_y * (alpha / (2.0 * beta)), config)
        l_steps.append(l_trace.converged)
        L_new = laplacian_from_weights(W_new)
        # Y step: closed-form smoother
        Y_new = np.linalg.solve(np.eye(n) + alpha * L_new.data, X)
        Z_new = distance_matrix(Y_new).Z
        obj = _dong_objective(X, Y_new, W_new, Z_new, alpha, beta)
        trace.iters_used = outer + 1
        if np.isfinite(best) and obj > best + DONG_OUTER_TOL * max(1.0, abs(best)):
            trace.notes["rolled_back"] = True
            break
        L, Y, Z_y = L_new, Y_new, Z_new
        trace.log(obj)
        if np.isfinite(best) and best - obj <= DONG_OUTER_TOL * max(1.0, abs(best)):
            trace.converged = l_trace.converged
            best = obj
            break
        best = obj
    return L, Y, trace


def edge_select(X, K: int):
    """Exact K-edge selection by rank ordering of smoothness scores.

    The score of candidate edge (i, j) is the squared distance between
    the signal profiles at its endpoints; the K smallest scores are the
    exact solution of the cardinality-constrained smoothness problem.
    Ties break lexicographically by (i, j). Returns (edges, scores)
    with ``scores`` the full symmetric score matrix.
    """
    X = as_signal_matrix(X)
    n = X.shape[0]
    m = n * (n - 1) // 2
    if not (1 <= K <= m):
        raise BadK(f"K={K} outside 1..{m}")
    Z = distance_matrix(X).Z
    iu, ju = edge_index(n)
    scores = Z[iu, ju]
    order = np.lexsort((ju, iu, scores))  # score first, then (i, j)
    chosen = order[:K]
    edges = sorted((int(iu[m_]), int(ju[m_])) for m_ in chosen)
    return edges, Z


def edge_select_noisy(X, K: int, alpha: float):
    """Edge selection for noisy observations by alternating minimization.

    Alternates the closed-form denoiser Y = (I + alpha L)^-1 X with the
    exact rank-ordering step on the scores recomputed from Y. The
    objective ||X - Y||^2 + alpha trace(Y' L Y) is non-increasing; the
    loop stops when the edge set repeats, or after
    ``EDGE_SELECT_OUTER_ITERS`` alternations. Returns (edges, Y, trace).
    """
    if not 0 < alpha < np.inf:
        raise BadParameter(f"alpha must be a finite number > 0, got {alpha!r}")
    X = as_signal_matrix(X)
    n = X.shape[0]
    edges, _ = edge_select(X, K)
    trace = SolveTrace()
    Y = X
    for outer in range(EDGE_SELECT_OUTER_ITERS):
        L = build_shift([(i, j, 1.0) for i, j in edges], n,
                        ShiftKind.LAPLACIAN).data
        Y = np.linalg.solve(np.eye(n) + alpha * L, X)
        obj = float(np.linalg.norm(X - Y) ** 2) + alpha * float(
            np.trace(Y.T @ L @ Y))
        trace.log(obj)
        trace.iters_used = outer + 1
        new_edges, _ = edge_select(Y, K)
        if new_edges == edges:
            trace.converged = True
            break
        edges = new_edges
    return edges, Y, trace
