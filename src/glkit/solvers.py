"""Reusable optimization kernels.

Contains the coordinate-descent lasso used by every regression-style
learner (one Gram matrix shared by many right-hand sides, each with its
own mask of usable coordinates), the proximal-gradient kernel of the
penalised Gaussian likelihood shared by the precision estimators, the
residual-balanced two-block ADMM kernel of robust spectral templates,
exact projections onto the shift constraint sets
(closed form for adjacencies, one edge-weight engine solve for
Laplacians), the exact linear program for noise-free spectral
templates (by delayed row generation), the certified primal active-set
walk that solves robust l1 templates on the ``first_node`` adjacency
set, the accelerated feasibility gap that gives the walk its feasible
start and the automatic eps, and the edge-weight engine for problems
with degree terms: one proximal-point loop of semismooth Newton solves
on their N-variable Lagrange dual (a single round when the ridge weight
is positive), with the weight-to-degree map and the Newton matrix built
by index arithmetic.

Edge vectors follow the order of :func:`graphcore.edge_index`. The
kernels share its per-N cache, and that of the flat positions of
:func:`graphcore.edge_positions`, instead of rebuilding an index on each
call: a robust spectral-template solve calls the two shift projections
thousands of times.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadInput, BadParameter, Infeasible, SolverError
from .graphcore import edge_index, edge_positions, weights_from_edge_vector

WEIGHT_CAP = 1e6  # hard upper bound on learned edge weights
SPECTRAL_GAP_TOL = 1e-6  # spectral_gap's relative-decrease stop
SPECTRAL_GAP_MAX_ITERS = 3000


@dataclass(frozen=True)
class SolverConfig:
    """The two knobs shared by the iterative solvers: an iteration cap
    and a stopping tolerance.

    Each solver reads ``tol`` against its own residual: relative change
    for the lasso, the scaled primal and dual residuals for
    :func:`admm` (and the relative KKT residual of the certificate of
    the active-set walk for robust l1 spectral templates), a scale-free
    KKT residual for the precision estimators' :func:`logdet_prox_gradient`
    and a relative degree residual for the edge-weight engine (whose
    ``max_iters`` counts Newton steps).
    Exact solves ignore both: the eps = 0 spectral-template LP with the
    l1 or sup-norm objective is solved by HiGHS to optimality.
    """

    max_iters: int = 5000
    tol: float = 1e-7

    def __post_init__(self):
        # an infinite tol stops every loop at once as converged, a NaN never
        mi, tol = self.max_iters, self.tol
        if isinstance(mi, bool) or not isinstance(mi, numbers.Integral) or mi < 1:
            raise BadParameter(f"max_iters must be an integer >= 1, got {mi!r}")
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not 0 < tol < math.inf):
            raise BadParameter(f"tol must be a finite number > 0, got {tol!r}")


@dataclass
class SolveTrace:
    """Per-run diagnostics: objective path, residuals, convergence flag."""

    objective: list = field(default_factory=list)
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)
    converged: bool = False
    iters_used: int = 0
    notes: dict = field(default_factory=dict)

    def log(self, obj: float, primal: float = np.nan, dual: float = np.nan):
        if not np.isfinite(obj):
            raise BadInput("objective became non-finite")
        self.objective.append(float(obj))
        self.primal_residuals.append(float(primal))
        self.dual_residuals.append(float(dual))


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def project_simplex(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection onto {u >= 0, sum(u) = s}."""
    if s <= 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    idx = np.nonzero(u * k > (css - s))[0][-1]
    theta = (css[idx] - s) / (idx + 1.0)
    return np.maximum(v - theta, 0.0)


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a flat array onto the l1 ball."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    w = project_simplex(a.ravel(), radius).reshape(v.shape)
    return np.sign(v) * w


# ---------------------------------------------------------------------------
# lasso coordinate descent


def lasso_cd_gram(G, R, lam, config: SolverConfig | None = None,
                  penalty_weights=None, beta0=None, const_term=0.0, mask=None):
    """Coordinate descent on 0.5 b'Gb - r'b + lam * sum w_j |b_j| for one
    or many right-hand sides r sharing the symmetric Gram matrix G.

    Gram-matrix form of the lasso (G = A'A, r = A'b) and the one
    coordinate loop behind every regression learner. ``R`` is a k-vector
    (one problem) or an m x k matrix with one problem per row. The
    problems are solved one after another, each sweeping its coordinates
    in index order and stopping on its own relative-change rule, so a
    row gives the same result alone or in a batch. ``mask`` (k or m x k,
    boolean) names the coordinates each problem may use; the rest stay
    exactly 0, even from a nonzero warm start. ``penalty_weights`` (k or
    m x k) exempts coordinates (weight 0) from the l1 penalty. ``beta0``
    (shaped like ``R``) warm-starts the solves. ``const_term`` (scalar or
    one per problem) only shifts the logged objective (0.5 ||b||^2 for
    the regression form).

    Returns (B shaped like ``R``, one trace). ``trace.converged`` holds
    when every problem met its stopping rule; otherwise one UserWarning
    counts the problems stopped at ``max_iters``. ``iters_used`` sums their
    sweeps and ``objective`` holds each problem's sweep path in turn.
    ``notes["sweeps"]`` and ``notes["objectives"]`` list the per-problem
    sweep counts and final objectives; ``notes["kkt_residual"]`` is the
    worst projected-subgradient residual over the usable coordinates and
    ``notes["kkt_scale"]`` the largest max(1, |r|_inf) over them.
    """
    config = config or SolverConfig()
    G = np.asarray(G, dtype=float)
    R = np.asarray(R, dtype=float)
    R2 = np.atleast_2d(R)
    m, k = R2.shape
    if R.ndim > 2 or G.shape != (k, k):
        raise BadInput("lasso needs a k x k Gram and k or m x k right-hand sides")
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(R))):
        raise BadInput("non-finite lasso inputs")
    if not 0 <= lam < math.inf:
        raise BadParameter(f"l1 penalty must be a finite number >= 0, got {lam!r}")
    weights = np.broadcast_to(np.ones(k) if penalty_weights is None
                              else np.asarray(penalty_weights, float), (m, k))
    allowed = np.broadcast_to(True if mask is None else np.asarray(mask, bool), (m, k))
    consts = np.broadcast_to(np.asarray(const_term, float), (m,))
    diag = np.diag(G).copy()
    usable = allowed & (diag > 0)
    B = np.zeros((m, k)) if beta0 is None else np.array(beta0, float).reshape(m, k)
    B[~usable] = 0.0

    def objective(beta, g, r, w, c):
        return 0.5 * beta @ g - r @ beta + lam * np.abs(w * beta).sum() + c

    trace = SolveTrace()
    sweeps, finals, kkt, scale, capped = [], [], 0.0, 1.0, 0
    for i in range(m):
        beta, r, w, c = B[i], R2[i], weights[i], consts[i]
        thresh = lam * w
        coords = np.flatnonzero(usable[i]).tolist()
        g = G @ beta  # maintained = G beta
        trace.log(objective(beta, g, r, w, c))
        done, sweep = False, 0
        while not done and sweep < config.max_iters:
            max_delta = 0.0
            for j in coords:
                old = beta[j]
                rho_j = r[j] - g[j] + diag[j] * old
                new = soft_threshold(rho_j, thresh[j]) / diag[j]
                if new != old:
                    g += (new - old) * G[:, j]
                    beta[j] = new
                    max_delta = max(max_delta, abs(new - old))
            trace.log(objective(beta, g, r, w, c))
            sweep += 1
            done = bool(max_delta
                        <= config.tol * max(1.0, np.abs(beta).max(initial=0.0)))
        sweeps.append(sweep)
        finals.append(trace.objective[-1])
        capped += not done
        # projected (sub)gradient residual for the KKT report
        on = allowed[i]
        grad = (g - r)[on]
        res = np.where(beta[on] == 0.0, np.maximum(np.abs(grad) - thresh[on], 0.0),
                       np.abs(grad + thresh[on] * np.sign(beta[on])))
        kkt = max(kkt, float(res.max(initial=0.0)))
        scale = max(scale, float(np.abs(r[on]).max(initial=0.0)))
    trace.converged = capped == 0
    if capped:
        warnings.warn(f"lasso_cd_gram stopped {capped} of {m} problems at its "
                      f"{config.max_iters}-sweep cap before its tol rule held",
                      stacklevel=2)
    trace.iters_used = sum(sweeps)
    trace.notes.update(sweeps=sweeps, objectives=finals, kkt_residual=kkt,
                       kkt_scale=scale)
    return (B if R.ndim == 2 else B[0]), trace


def lasso_cd(A, b, lam, config: SolverConfig | None = None, penalty_weights=None):
    """Lasso 0.5 ||b - A beta||^2 + lam ||beta||_1 by coordinate descent.

    Returns (beta, trace); ``trace.converged`` is False, with a warning
    rather than an exception, when the sweep cap is hit. KKT residuals
    are reported in ``trace.notes``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[1] < 1:
        raise BadInput("design matrix needs at least one column")
    if A.shape[0] != b.shape[0]:
        raise BadInput("design/response length mismatch")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise BadInput("non-finite lasso inputs")
    G = A.T @ A
    r = A.T @ b
    return lasso_cd_gram(G, r, lam, config, penalty_weights,
                         const_term=0.5 * float(b @ b))


# ---------------------------------------------------------------------------
# penalised Gaussian likelihood


def logdet_prox_gradient(theta, adjoint, lin, prox, penalty, x, step: float,
                         config: SolverConfig):
    """min F(x) = -logdet theta(x) + lin'x + h(x), theta affine in x, by
    proximal gradient (G-ISTA: Rolfs, Rajaratnam, Guillot & Wong, NIPS
    2012) from x, where theta(x) is positive definite: Barzilai-Borwein
    steps (``step`` the first) and Armijo backtracking on F, one Cholesky
    factor per trial point. ``adjoint`` is the transpose of theta's linear
    part, ``prox(v, t)`` h's prox and ``penalty`` h (0 for an indicator).
    Stops when the scale-free KKT residual ||x - prox(x - s^2 g, s^2)||_inf
    / s, s = max|x|, is at most ``tol``, or warns when ``max_iters`` or 60
    step halvings run out. Returns (x, trace), the residual in its notes.
    """

    def value(x):
        """(F(x), Cholesky factor of theta(x)), or (inf, None) off the domain."""
        try:
            factor = np.linalg.cholesky(theta(x))
        except np.linalg.LinAlgError:
            return np.inf, None
        return float(lin @ x) - 2.0 * float(np.log(np.diag(factor)).sum()) + \
            penalty(x), factor

    def gradient(factor):
        inv_factor = np.linalg.inv(factor)
        return lin - adjoint(inv_factor.T @ inv_factor)  # Theta^-1

    F, factor = value(x)
    g = gradient(factor)
    trace = SolveTrace()
    trace.log(F)
    while True:
        s = float(np.abs(x).max())
        residual = float(np.abs(x - prox(x - s * s * g, s * s)).max()) / s
        if residual <= config.tol or trace.iters_used == config.max_iters:
            break
        # Armijo test with slack for rounding in F: near the optimum the
        # decrease falls below it and the BB step is taken as it stands
        slack = 1e-12 * max(1.0, abs(F))
        for _ in range(60):
            x_new = prox(x - step * g, step)
            F_new, factor = value(x_new)
            decrease = float(g @ (x_new - x)) + penalty(x_new) - penalty(x)
            if F_new <= F + 1e-4 * decrease + slack:
                break
            step *= 0.5
        else:
            break
        g_new = gradient(factor)
        dx, dg = x_new - x, g_new - g
        if dx @ dg > 0:
            step = float(dx @ dx) / float(dx @ dg)
        x, F, g = x_new, F_new, g_new
        trace.iters_used += 1
        trace.log(F)
    trace.converged = residual <= config.tol
    if not trace.converged:
        cause = "60 step halvings" if trace.iters_used < config.max_iters else \
            f"its {config.max_iters}-iteration cap"
        warnings.warn(f"logdet_prox_gradient stopped at {cause}", stacklevel=3)
    trace.notes["kkt_residual"] = residual
    return x, trace


# ---------------------------------------------------------------------------
# two-block ADMM


def admm(prox_x, prox_z, z0, config: SolverConfig, objective):
    """Scaled two-block ADMM for min f(x) + g(z) s.t. x = z over N x N
    matrices (the robust spectral templates' solver).

    From z = z0, u = 0 and rho = 1 it iterates x = prox_x(z - u, rho),
    z = prox_z(x + u, rho), u += x - z, where prox_x(m, rho) minimises
    f(x) + rho/2 ||x - m||_F^2 (likewise prox_z for g). Every 50
    iterations the residuals are balanced (Boyd et al., "Distributed
    optimization and statistical learning via ADMM", 2011, 3.4.1): rho
    doubles and u halves when the primal residual r = ||x - z||_F exceeds
    ten times the dual residual s = rho ||z - z_prev||_F, and the reverse
    when s exceeds ten times r. Stops when r and s are both at most
    ``tol * N * max(1, ||x||_F)`` or after ``max_iters`` iterations.
    Logs objective(x), r and s every iteration. Returns (x, z, trace).
    """
    z = z0
    u = np.zeros_like(z0)
    rho = 1.0
    trace = SolveTrace()
    for it in range(config.max_iters):
        x = prox_x(z - u, rho)
        z_prev = z
        z = prox_z(x + u, rho)
        u = u + x - z
        r = float(np.linalg.norm(x - z))
        s = rho * float(np.linalg.norm(z - z_prev))
        trace.log(objective(x), r, s)
        trace.iters_used = it + 1
        if max(r, s) <= config.tol * x.shape[0] * max(1.0, float(np.linalg.norm(x))):
            trace.converged = True
            break
        if (it + 1) % 50 == 0:
            if r > 10.0 * s:
                rho, u = 2.0 * rho, u / 2.0
            elif s > 10.0 * r:
                rho, u = rho / 2.0, 2.0 * u
    return x, z, trace


# ---------------------------------------------------------------------------
# shift constraint sets


def _sym(M):
    return 0.5 * (M + M.T)


@lru_cache(maxsize=8)
def _l1_tilt(kind: str, n: int) -> np.ndarray:
    G = np.ones((n, n)) if kind == "adjacency" else -np.ones((n, n))
    np.fill_diagonal(G, 0.0 if kind == "adjacency" else 1.0)
    G.flags.writeable = False
    return G


@dataclass(frozen=True)
class ShiftConstraintSet:
    """Feasible set for recovered shift operators.

    ``kind="adjacency"``: symmetric, nonnegative, zero diagonal, plus one
    scale-fixing equality - either the weighted degree of the first
    vertex equal to one (``scale="first_node"``) or total weight equal to
    N (``scale="total"``). ``kind="laplacian"``: symmetric, nonpositive
    off-diagonals, zero row sums and trace N (positive semidefiniteness
    follows from diagonal dominance).

    Note that on the Laplacian set the l1 norm equals twice the trace and
    is therefore constant: sparsity-based eigenvalue selection cannot
    break ties there (the rescaled complete-graph Laplacian is feasible
    for every basis containing the constant vector), so adjacency
    recovery is the meaningful sparse route.
    """

    kind: str = "adjacency"
    scale: str = "first_node"

    def __post_init__(self):
        if self.kind not in ("adjacency", "laplacian"):
            raise BadParameter(f"unknown constraint kind {self.kind!r}")
        if self.scale not in ("first_node", "total"):
            raise BadParameter(f"unknown scale rule {self.scale!r}")

    def scale_equality(self, n: int):
        """(A, b) of the set's scale-fixing equality <A, S> = b."""
        if self.kind == "laplacian":
            return np.eye(n), float(n)
        if self.scale == "total":
            return np.ones((n, n)), float(n)
        A = np.zeros((n, n))
        A[:, 0] = 1.0
        return A, 1.0

    def violation(self, M) -> float:
        """Largest violation of the set's conditions by M."""
        M = np.asarray(M, float)
        A, b = self.scale_equality(M.shape[0])
        off = M - np.diag(np.diag(M))
        v = [np.abs(M - M.T).max(initial=0.0), abs(float((A * M).sum()) - b)]
        if self.kind == "adjacency":
            v += [-off.min(initial=0.0), np.abs(np.diag(M)).max(initial=0.0)]
        else:
            v += [off.max(initial=0.0), np.abs(M.sum(axis=1)).max(initial=0.0)]
        return float(max(v))

    def l1_tilt(self, n: int) -> np.ndarray:
        """Matrix G with <G, S> = ||S||_1 for every S in the set
        (read-only, cached per kind and N)."""
        return _l1_tilt(self.kind, n)

    def project(self, M) -> np.ndarray:
        """Exact Euclidean projection onto the set.

        After symmetrization both kinds reduce to a problem over the
        edge vector w >= 0 (the upper triangle in :func:`edge_index`
        order). The adjacency sets have a closed form: entrywise clipping
        plus one simplex projection over the entries tied by the scale
        equality (for ``first_node`` the pairs (0, j), the first N - 1 in
        edge order). It gathers sym(M)'s upper triangle and scatters w
        through the cached flat positions of :func:`edge_positions`,
        without forming sym(M). The Laplacian set is
        {L(w) : w >= 0, sum(w) = N/2}, onto which sym(M) is projected by
        one edge-weight engine solve (:func:`_project_laplacian`). Raises
        Infeasible for N < 2, where no edge can meet the scale equality.
        """
        M = np.asarray(M, float)
        n = M.shape[0]
        if M.shape != (n, n):
            raise BadInput("projection needs a square matrix")
        if n < 2:
            raise Infeasible("the shift constraint sets are empty for N < 2")
        if self.kind == "laplacian":
            W, _ = _project_laplacian(_sym(M), SolverConfig(tol=1e-12))
            return np.diag(W.sum(axis=1)) - W
        up, lo = edge_positions(n)
        flat = M.ravel()
        vals = 0.5 * (flat[up] + flat[lo])  # sym(M) at the pairs
        if self.scale == "first_node":
            w = np.maximum(vals, 0.0)
            w[:n - 1] = project_simplex(vals[:n - 1], 1.0)
        else:
            w = project_simplex(vals, float(n) / 2.0)
        out = np.zeros(n * n)
        out[up] = w
        out[lo] = w
        return out.reshape(n, n)


# ---------------------------------------------------------------------------
# spectral templates: l1-minimal shifts with a prescribed (partial) eigenbasis


class SpectralCoupling:
    """Projection onto {V diag(lam) V' + E : ||E||_F <= eps} for a full
    orthonormal basis V; with eps = 0 this is the subspace of matrices
    diagonalized by V."""

    def __init__(self, V: np.ndarray, eps: float = 0.0):
        self.V = np.asarray(V, float)
        self.eps = float(eps)

    def project(self, M):
        Mt = self.V.T @ _sym(M) @ self.V
        lam = np.diagonal(Mt).copy()
        np.fill_diagonal(Mt, 0.0)  # Mt holds the off-diagonal residual
        dist = float(np.linalg.norm(Mt))
        shrink = 0.0 if self.eps <= 0 or dist == 0 else min(1.0, self.eps / dist)
        Mt *= shrink
        np.fill_diagonal(Mt, lam)
        return _sym(self.V @ Mt @ self.V.T)


def _prox_objective(cset: ShiftConstraintSet, M, inv_rho: float, objective: str):
    """prox of (objective + indicator of cset) evaluated at M."""
    n = M.shape[0]
    if objective == "l1":
        # ||S||_1 is linear on the sign-constrained set, so the composite
        # prox is a single projection of the tilted point
        return cset.project(M - inv_rho * cset.l1_tilt(n))
    if objective == "frobenius":
        return cset.project(M / (1.0 + inv_rho))
    # linf: alternating prox steps with correction terms for the nonseparable pair
    x = M.copy()
    p = np.zeros_like(M)
    q = np.zeros_like(M)
    for _ in range(200):
        v = x + p
        y = v - project_l1_ball(v, inv_rho)  # prox of inv_rho * ||.||_inf
        p = v - y
        x_new = cset.project(y + q)
        q = y + q - x_new
        if np.abs(x_new - x).max() < 1e-12:
            x = x_new
            break
        x = x_new
    return x


def _objective_value(S, objective: str) -> float:
    if objective == "l1":
        return float(np.abs(S).sum())
    if objective == "frobenius":
        return float(np.linalg.norm(S))
    return float(np.abs(S).max())


def spectral_gap(V, constraint_set: ShiftConstraintSet):
    """Distance between the constraint set and the span of the basis's
    rank-one eigen-matrices.

    Alternating projections are projected gradient steps on half the
    squared distance to the span; they run here with Nesterov momentum
    and a function-value restart (O'Donoghue & Candes, "Adaptive restart
    for accelerated gradient schemes", 2015): whenever the distance of
    an iteration's pair exceeds the previous one, the momentum resets.
    Each iteration projects the extrapolated point onto the span (T) and
    T onto the set (S), so every pair (S, T) is feasible. Stops once an
    iteration that does not restart lowers the distance by at most
    ``SPECTRAL_GAP_TOL`` relative; warns when ``SPECTRAL_GAP_MAX_ITERS``
    runs out first.

    Returns (gap, S, trace). ``gap`` is the smallest ||S - T||_F seen:
    an upper bound on the true gap, hence every eps at or above it is
    feasible. ``S`` is the member of the set that reached it, within
    ``gap`` of the span. The trace logs each iteration's distance;
    ``converged`` is False when the cap stopped the loop.
    """
    V = np.asarray(V, dtype=float)
    coupling = SpectralCoupling(V, 0.0)
    S = S_prev = best_S = constraint_set.project(np.ones((V.shape[0], V.shape[0])))
    t = 1.0
    prev = best = np.inf
    trace = SolveTrace()
    for it in range(SPECTRAL_GAP_MAX_ITERS):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        T = coupling.project(S + ((t - 1.0) / t_next) * (S - S_prev))
        S_prev, S = S, constraint_set.project(T)
        dist = float(np.linalg.norm(S - T))
        trace.log(dist)
        trace.iters_used = it + 1
        if dist < best:
            best, best_S = dist, S
        if dist > prev:
            t = 1.0  # restart: the next step is a plain projection pair
        elif prev - dist <= SPECTRAL_GAP_TOL * max(dist, 1e-12):
            trace.converged = True
            break
        else:
            t = t_next
        prev = dist
    else:
        warnings.warn(f"spectral_gap stopped at its {SPECTRAL_GAP_MAX_ITERS}-"
                      "iteration cap before its tol rule held", stacklevel=2)
    return best, best_S, trace


# HiGHS's primal feasibility tolerance, passed to every solve: row
# generation stops once no row left out is violated by more than it
_LP_FEAS_TOL = 1e-7


def _spectral_lp(V, cset: ShiftConstraintSet, objective: str):
    """Exact eps = 0 solve: min ||S||_1 (or ||S||_inf) over the members
    S of the set that equal V diag(lam) V' + Vc Z Vc', with Z a free
    symmetric block on an orthonormal complement Vc of a partial N x K
    basis (empty for a full one).

    With U = [V Vc], LP variable m scales (u_p u_q' + u_q u_p') / 2 for
    the column pair (p_m, q_m): (k, k) for each eigenvalue, (a, b) with
    a <= b for each entry of Z. The sign of each entry is fixed on the
    set, so both norms are linear there (sup-norm via one epigraph
    variable t >= 0).

    Delayed row generation (Bertsimas & Tsitsiklis, Introduction to
    Linear Optimization, 6.1): every equality row is in every HiGHS
    solve, while the inequality rows - one sign row per entry pair, plus
    the |S_ij| <= t epigraph rows for the sup-norm - start as those of
    the first vertex's N - 1 pairs. Each round reads every row's value
    off the assembled S and stops when no row left out is violated by
    more than ``_LP_FEAS_TOL``, HiGHS's own feasibility tolerance for
    the rows it holds: a relaxation whose solution every row accepts is
    optimal for the full LP, so the result is exact. Otherwise it adds
    the 4N left-out rows of largest value, the most violated first;
    nearly binding rows fill the rest, since a restricted vertex often
    violates only a few rows at a time. The l1 objective <G, S> equals
    ||S||_1 on the set, so the implied row <G, S> >= 0 joins every solve
    and keeps each restricted LP bounded (the sup-norm is bounded by
    t >= 0). An infeasible restricted LP raises Infeasible: the full LP
    has more rows. The final vertex is projected onto the set so that
    its structural constraints hold exactly.

    Returns (S, lam, trace) with the distance to the coupling set and
    the last solve's duality gap as residuals. ``iters_used`` sums the
    simplex iterations of all rounds, ``notes["lp_rounds"]`` counts the
    solves and ``notes["lp_rows"]`` / ``notes["lp_rows_full"]`` give the
    inequality rows of the final solve and of the full LP.
    """
    from scipy.optimize import linprog

    n, k = V.shape
    U = np.hstack([V, np.linalg.qr(V, mode="complete")[0][:, k:]])
    za, zb = np.triu_indices(n - k)
    p = np.concatenate([np.arange(k), k + za])
    q = np.concatenate([np.arange(k), k + zb])
    up, uq = U[:, p], U[:, q]

    def entry_rows(i, j):
        """Coefficients of S_ij in the LP variables, one row per pair."""
        return 0.5 * (up[i] * uq[j] + uq[i] * up[j])

    def in_basis(M):
        """<M, (u_p u_q' + u_q u_p') / 2> for every variable, M symmetric."""
        return (U.T @ M @ U)[p, q]

    G = cset.l1_tilt(n)  # G_ij S_ij = |S_ij| on the set
    A, b = cset.scale_equality(n)  # <A, S> = b
    if cset.kind == "adjacency":
        zero_rows = up * uq  # the diagonal entries
    else:  # row sums: each row of U summed against the all-ones vector
        ones_u = U.sum(axis=0)
        zero_rows = 0.5 * (up * ones_u[q] + uq * ones_u[p])
    a_eq = np.vstack([zero_rows, in_basis(_sym(A))])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = b
    # the pool of inequality rows: row r reads coef[r] S_{ri, rj} + tcoef[r] t <= 0
    iu, ju = edge_index(n)
    g_off = G[iu, ju]
    ri, rj, coef, tcoef = iu, ju, -g_off, np.zeros(iu.size)
    first = np.arange(n - 1)  # the pairs (0, j) lead the edge order
    c = in_basis(G)
    floor = [-c]
    bounds = (None, None)
    if objective == "linf":
        diag = np.arange(n)
        ri, rj = np.concatenate([iu, iu, diag]), np.concatenate([ju, ju, diag])
        coef = np.concatenate([coef, g_off, np.diag(G)])
        tcoef = np.concatenate([tcoef, -np.ones(iu.size + n)])
        first = np.concatenate([first, iu.size + first])
        a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
        c = np.zeros(p.size + 1)
        c[-1] = 1.0
        floor = []
        bounds = [(None, None)] * p.size + [(0.0, None)]

    def pool_rows(r):
        rows = coef[r, None] * entry_rows(ri[r], rj[r])
        return rows if objective == "l1" else np.hstack([rows, tcoef[r, None]])

    active = np.zeros(coef.size, dtype=bool)
    active[first] = True
    blocks = floor + [pool_rows(first)]
    rounds = nit = 0
    while True:
        a_ub = np.vstack(blocks)
        # presolve slows these dense LPs: 3.6x at N = 50 (one round), 4-5x
        # in each round of an N = 200 partial-basis solve
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                      b_eq=b_eq, bounds=bounds, method="highs",
                      options={"presolve": False,
                               "primal_feasibility_tolerance": _LP_FEAS_TOL})
        rounds += 1
        nit += int(res.nit)
        if res.status == 2:
            raise Infeasible("no member of the constraint set is exactly "
                             "diagonalized by the given basis")
        if res.x is None:
            raise SolverError(f"spectral LP failed: {res.message}")
        C = np.zeros((n, n))
        C[p, q] = res.x[: p.size]
        S = U @ _sym(C) @ U.T
        t = res.x[-1] if objective == "linf" else 0.0
        viol = coef * S[ri, rj] + tcoef * t
        viol[active] = -np.inf
        if not (viol > _LP_FEAS_TOL).any():
            break
        # the 4N left-out rows of largest value, violated or nearly binding
        new = np.flatnonzero(~active)
        if new.size > 4 * n:
            new = new[np.argpartition(viol[new], -4 * n)[-4 * n:]]
        active[new] = True
        blocks.append(pool_rows(new))
    S = cset.project(S)
    Mt = U.T @ S @ U
    Mt[np.arange(k), np.arange(k)] = 0.0
    Mt[k:, k:] = 0.0
    trace = SolveTrace()
    trace.log(_objective_value(S, objective), float(np.linalg.norm(Mt)),
              abs(res.fun - float(b_eq @ res.eqlin.marginals)))
    trace.converged = res.status == 0
    trace.iters_used = nit
    trace.notes.update(constraint_violation=float(cset.violation(S)),
                       lp_rounds=rounds, lp_rows=a_ub.shape[0],
                       lp_rows_full=coef.size)
    return S, res.x[:k].copy(), trace


_WALK_ROUNDS = 200  # solves of the active-set walk before the ADMM takes over
_FINISH_ROUNDING = 1e-9  # relative slack of the certificate's ball and set checks


class _EdgeKKT:
    """The eps > 0 l1 problem on an adjacency set: its closed-form KKT
    solve on a support and the certificate of a solution.

    In the edge vector w of S (:func:`edge_index` order) the problem is
    min c'w s.t. w >= 0, a'w = b, w'Aw <= eps^2, with c the l1 tilt,
    (a, b) the set's scale equality, A = 2I - BB' and B[e, k] =
    2 V[i, k] V[j, k]: w'Aw = ||S||_F^2 - ||diag(V'SV)||^2 is the squared
    distance from S to the matrices V diagonalizes. On a support E with
    the ball active, stationarity gives w_E = -A_EE^-1 (c + nu a) / (2 mu).
    A_EE^-1 applies by Woodbury with one Cholesky factor of the N x N
    matrix M = 2I - B_E'B_E (summed as 2D'D + B_F'B_F over the pairs F
    left out when they are fewer, D = V o V), and B and B' apply as
    N x N products; the scale equality and the ball make nu a root
    of a scalar quadratic, and mu = sqrt(f(nu)) / (2 eps), with f(nu) the
    quadratic form of A_EE^-1 (c + nu a). The reduced costs of a solution
    are z = c + nu a + 2 mu Aw.

    A solution is certified only when, checked on S itself, it lies in
    the set and within eps of the span up to ``_FINISH_ROUNDING``
    relative, and its KKT residual - the largest |z_e| on the support and
    -z_e off it, over max|c| - is at most ``tol``.
    """

    def __init__(self, V, eps: float, cset: ShiftConstraintSet,
                 coupling: SpectralCoupling, tol: float):
        n = V.shape[0]
        self.V, self.n, self.eps, self.cset, self.coupling = V, n, eps, cset, coupling
        self.iu, self.ju = edge_index(n)
        self.up, lo = edge_positions(n)
        A_eq, self.b = cset.scale_equality(n)
        self.a = A_eq.ravel()[self.up] + A_eq.ravel()[lo]
        tilt = cset.l1_tilt(n).ravel()
        self.c = tilt[self.up] + tilt[lo]
        self.cmax = float(np.abs(self.c).max())
        self.floor = -tol * self.cmax  # reduced costs below it price an edge in
        self.tol = tol
        self.k = self.b * self.b / (eps * eps)
        D = V * V
        self.DD = 2.0 * D.T @ D

    def b_t(self, x):  # B'x = diag(V' W(x) V) for an edge vector x
        return np.einsum("ik,ik->k", self.V, weights_from_edge_vector(x, self.n) @ self.V)

    def b_op(self, y):  # By over every pair: 2 (V diag(y) V')_ij
        return 2.0 * ((self.V * y) @ self.V.T).ravel()[self.up]

    def solve(self, E):
        """(w, nu, mu) of the ball-active KKT point on support E, or None."""
        V, n, iu, ju, a, k = self.V, self.n, self.iu, self.ju, self.a, self.k
        if 2 * np.count_nonzero(E) <= E.size:
            BE = 2.0 * V[iu[E]] * V[ju[E]]
            M = 2.0 * np.eye(n) - BE.T @ BE
        else:  # B'B = 2I - 2 D'D over all pairs: sum over the fewer left out
            Bc = 2.0 * V[iu[~E]] * V[ju[~E]]
            M = self.DD + Bc.T @ Bc
        try:  # numpy's factor: scipy.linalg alone takes 0.27 s to import
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return None

        def a_inv(r):  # A_EE^-1 r = (r + B_E M^-1 B_E'r) / 2 by Woodbury, r on E
            return np.where(E, 0.5 * (r + self.b_op(np.linalg.solve(L.T, np.linalg.solve(
                L, self.b_t(r))))), 0.0)

        p, q = a_inv(self.c * E), a_inv(a * E)
        # x'A_EE y as <offdiag(V'W(x)V), offdiag(V'W(y)V)>: summing the
        # off-diagonal parts avoids the cancellation in 2x'y - (B'x)'(B'y)
        mp, mq = (_offdiag(V.T @ weights_from_edge_vector(x, n) @ V) for x in (p, q))
        P, R, Q = float((mp * mp).sum()), float((mp * mq).sum()), float((mq * mq).sum())
        alpha, beta = a @ p, a @ q
        # a'w = b and w'Aw = eps^2 give (alpha + nu beta)^2 = k f(nu), with
        # f(nu) = P + 2 nu R + nu^2 Q; a'w = b needs alpha + nu beta < 0
        a2, a1, a0 = beta * beta - k * Q, alpha * beta - k * R, alpha * alpha - k * P
        disc = a1 * a1 - a2 * a0
        if not (a2 > 0 and disc >= 0):
            return None
        nu = (-a1 - math.sqrt(disc)) / a2
        f = P + nu * (2.0 * R + nu * Q)
        if not (alpha + nu * beta < 0 and f > 1e-12 * abs(P)):
            return None
        mu = math.sqrt(f) / (2.0 * self.eps)
        return -(p + nu * q) / (2.0 * mu), nu, mu

    def price(self, w, nu: float, mu: float):
        """(S, V'SV, reduced costs z) of a solve's point w."""
        S = weights_from_edge_vector(w, self.n)
        Mt = self.V.T @ S @ self.V
        return S, Mt, self.c + nu * self.a + 2.0 * mu * (2.0 * w - self.b_op(np.diagonal(Mt)))

    def certify(self, S, Mt, z, E):
        """(S, its coupling projection, {"kkt_residual": ...}) when the
        certificate holds on S, else None. Overwrites Mt's diagonal."""
        kkt = max(float(np.abs(z[E]).max()), float(-z[~E].min(initial=0.0))) / self.cmax
        if (kkt <= self.tol
                and float(np.linalg.norm(_offdiag(Mt))) <= self.eps * (1.0 + _FINISH_ROUNDING)
                and self.cset.violation(S) <= _FINISH_ROUNDING * max(1.0, self.b)):
            return S, self.coupling.project(S), {"kkt_residual": kkt}
        return None

    def walk(self, S0):
        """Primal active-set walk (Nocedal & Wright, Numerical
        Optimization, ch. 16) from S0, a member of the set: returns (the
        certified (S, T, notes) or None, the number of solves).

        The iterate w is a feasible edge vector with support E, at first
        S0's. Each round solves on E. When some weights of the solution
        are <= 0, they are dropped, and so are those of each further
        solve, until a solve has every weight positive; that solution is
        kept when it does not raise c'w. Otherwise w steps toward E's
        solution up to the first weight that reaches 0 (a ratio test: the
        segment stays in the ball and on the scale hyperplane, both
        convex, and c'w does not rise along it), and that edge leaves E.
        With every weight positive, the edges whose reduced cost is below
        -tol max|c| join E; when there are none, the solution is
        certified. Returns None on a failed solve (a singular or
        ball-inactive support) or certificate, or once ``_WALK_ROUNDS``
        solves are spent. Runs no solve (0 rounds) when S0 is farther than
        eps from the span: eps is below the gap found there.
        """
        if _span_distance(self.V, S0) > self.eps:
            return None, 0
        w = S0.ravel()[self.up]
        E = w > 0
        rounds = 0
        while rounds < _WALK_ROUNDS:
            sol = self.solve(E)
            rounds += 1
            if sol is None:
                return None, rounds
            neg = E & (sol[0] <= 0)
            if neg.any():
                kept, bulk = E, sol
                while (bulk is not None and (bulk[0][kept] <= 0).any()
                       and rounds < _WALK_ROUNDS):
                    kept = kept & (bulk[0] > 0)
                    bulk = self.solve(kept)
                    rounds += 1
                if (bulk is None or (bulk[0][kept] <= 0).any()
                        or self.c @ bulk[0] > self.c @ w):
                    ratio = w[neg] / np.maximum(w[neg] - sol[0][neg], np.finfo(float).tiny)
                    j = np.flatnonzero(neg)[np.argmin(ratio)]
                    w = np.maximum(w + ratio.min() * (sol[0] - w), 0.0)
                    w[j], E[j] = 0.0, False
                    continue
                sol, E = bulk, kept
            w = sol[0]
            S, Mt, z = self.price(*sol)
            add = ~E & (z < self.floor)
            if not add.any():
                return self.certify(S, Mt, z, E), rounds
            E = E | add
        return None, rounds


def _offdiag(M):
    np.fill_diagonal(M, 0.0)
    return M


def _span_distance(V, M) -> float:
    """||offdiag(V'MV)||_F: the distance from symmetric M to the span of
    the basis's rank-one eigen-matrices."""
    return float(np.linalg.norm(_offdiag(V.T @ M @ V)))


def admm_l1_spectral(V, eps, constraint_set: ShiftConstraintSet,
                     config: SolverConfig | None = None, objective: str = "l1"):
    """min f(S) s.t. S in the constraint set, ||S - V diag(lam) V'||_F <= eps.

    ``eps="auto"`` solves at twice the feasibility gap of the basis
    (:func:`spectral_gap`, an upper bound on the smallest feasible eps);
    ``trace.notes["eps"]`` records the eps solved at, on every path.

    With eps = 0 and the l1 or sup-norm objective the problem is a
    linear program, solved exactly by :func:`_spectral_lp` (HiGHS with
    delayed row generation; ``iters_used`` sums the simplex iterations
    of its rounds); that path also takes a partial basis (N x K matrix
    V), whose orthogonal complement block of S is unconstrained
    spectrally, and ignores ``config``. With eps = 0 and the Frobenius
    objective the same LP first checks that the set meets the span.

    With eps > 0, the l1 objective and the ``first_node`` adjacency set,
    the primal active-set walk of :meth:`_EdgeKKT.walk` runs from the
    set member that :func:`spectral_gap` returns (for eps="auto", the
    same call that set eps). A certified result returns with no ADMM
    iteration: ``iters_used`` 0, ``notes["kkt_residual"]`` at most
    ``tol`` and ``notes["walk_rounds"]`` the walk's solves. The walk is
    not tried, and spectral_gap not called for a numeric eps, when the
    set's point nearest zero lies within eps of the span: that point is
    l1-minimal on the set, so it is optimal and the ball inactive.

    Every other case (the other objectives, the Laplacian set, the
    ``total`` scale, on which ||S||_1 = N for every member, and a walk
    that fails or cannot start) needs a full basis and runs :func:`admm`
    (residual balancing, stopping rule and ``config`` as documented
    there) from the coupling projection of the set's point nearest zero:
    the S block is the prox of the objective plus the set indicator (a
    projection of a tilted point for l1/Frobenius, an inner loop of
    alternating proxes with correction terms for sup-norm); the
    (lam, E) block projects onto the spectral coupling set in the V
    coordinates, with the off-diagonal residual shrunk to the eps-ball.
    It warns when the ADMM stops at ``max_iters``.

    Returns (S, lam, trace), lam read off the coupling block. Raises
    Infeasible when no member of the set is exactly diagonalized by V
    (eps = 0).
    """
    config = config or SolverConfig()
    V = np.asarray(V, dtype=float)
    if not (eps == "auto" or isinstance(eps, numbers.Real) and 0 <= eps < math.inf):
        raise BadParameter(f"eps must be 'auto' or a finite number >= 0, got {eps!r}")
    if objective not in ("l1", "linf", "frobenius"):
        raise BadParameter(f"unknown objective {objective!r}")
    n = V.shape[0]
    gram = V.T @ V
    if np.abs(gram - np.eye(V.shape[1])).max(initial=0.0) > 1e-8:
        raise BadInput("basis columns must be orthonormal")
    if V.shape[1] != n and (eps != 0 or objective == "frobenius"):
        raise BadParameter("a partial basis needs eps = 0 and the l1 or linf "
                           "objective")
    start = None
    if eps == "auto":
        gap, start, _ = spectral_gap(V, constraint_set)
        eps = 2.0 * gap
    notes = {"eps": float(eps)}
    if eps == 0 and objective != "frobenius":
        S, lam, trace = _spectral_lp(V, constraint_set, objective)
        trace.notes.update(notes)
        return S, lam, trace
    if eps == 0:
        _spectral_lp(V, constraint_set, "l1")  # raises Infeasible
    coupling = SpectralCoupling(V, eps)
    nearest = constraint_set.project(np.zeros((n, n)))
    done = None
    if (eps > 0 and objective == "l1" and constraint_set.kind == "adjacency"
            and constraint_set.scale == "first_node"
            and _span_distance(V, nearest) > eps):
        if start is None:
            start = spectral_gap(V, constraint_set)[1]
        done, rounds = _EdgeKKT(V, eps, constraint_set, coupling, config.tol).walk(start)
        if rounds:
            notes["walk_rounds"] = rounds
    if done is not None:
        S, T, kkt = done
        trace = SolveTrace(converged=True)
        trace.log(_objective_value(S, objective), float(np.linalg.norm(S - T)))
        trace.notes.update(kkt)
    else:
        S, T, trace = admm(
            lambda M, rho: _prox_objective(constraint_set, M, 1.0 / rho, objective),
            lambda M, rho: coupling.project(M),
            coupling.project(nearest), config, lambda S: _objective_value(S, objective))
        if not trace.converged:
            warnings.warn(f"admm_l1_spectral stopped at its {config.max_iters}-"
                          "iteration cap before its tol rule held", stacklevel=2)
    trace.notes.update(notes, constraint_violation=float(constraint_set.violation(S)))
    return S, np.diag(V.T @ T @ V).copy(), trace


# ---------------------------------------------------------------------------
# dual Newton solver for edge weights with degree terms


@dataclass(frozen=True)
class DegreeTerm:
    """Spec of the convex function g applied to the degree vector d = W 1.

    ``log_barrier``: -weight * sum log(d); ``quadratic``:
    weight/2 * ||d||^2. The weight is a finite number > 0.
    """

    kind: str = "log_barrier"
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("log_barrier", "quadratic"):
            raise BadParameter(f"unknown degree term {self.kind!r}")
        if not 0 < self.weight < math.inf:
            raise BadParameter(f"weight must be a finite number > 0, got {self.weight!r}")

    def value(self, d):
        if self.kind == "log_barrier":
            return -self.weight * float(np.log(np.maximum(d, 1e-300)).sum())
        return 0.5 * self.weight * float(d @ d)

    def grad(self, d):
        if self.kind == "log_barrier":
            return -self.weight / np.maximum(d, 1e-300)
        return self.weight * d

    def conjugate(self, v):
        """Value, gradient (the minimiser d(v) of g(d) - v'd) and Hessian
        diagonal of the conjugate g* at v; the log barrier's needs v < 0."""
        a = self.weight
        if self.kind == "log_barrier":
            return a * float((np.log(a / -v) - 1.0).sum()), -a / v, a / (v * v)
        return 0.5 * float(v @ v) / a, v / a, np.full(v.size, 1.0 / a)


def _vertex_sums(n: int, iu, ju, a) -> np.ndarray:
    """Ba: the sum of a over the edges (iu, ju) at each vertex.

    Equal bit for bit to np.bincount(iu, a, n) + np.bincount(ju, a, n):
    both add in edge order from zero. np.bincount copies an index it
    may not write to, such as the read-only cached :func:`edge_index`
    (11.8 against 9.8 ms per sum at N = 2000 on a 2-core host);
    np.add.at reads it in place.
    """
    at_i, at_j = np.zeros(n), np.zeros(n)
    np.add.at(at_i, iu, a)
    np.add.at(at_j, ju, a)
    return at_i + at_j


def _signless_laplacian(n: int, iu, ju, a, h) -> np.ndarray:
    """B diag(a) B' + diag(h) for the degree map B of the edges
    (iu, ju): a_e at (i, j) and (j, i), the a-weighted degrees plus h on
    the diagonal."""
    H = np.zeros((n, n))
    H[iu, ju] = a
    H[ju, iu] = a
    H[np.arange(n), np.arange(n)] = _vertex_sums(n, iu, ju, a) + h
    return H


def _project_laplacian(S, config: SolverConfig):
    """Weights W of the trace-N Laplacian L(W) nearest to symmetric S
    in Frobenius norm, and the engine's trace.

    With d = diag(S) and z_ij = 2 S_ij - d_i - d_j,
    ||S - L(w)||_F^2 = 2 z'w + ||Bw||^2 + 2 ||w||^2 + const: one
    :func:`primal_dual_graph` solve (quadratic degree term, beta = 2,
    weight sum N/2).
    """
    n = S.shape[0]
    iu, ju = edge_index(n)
    d = np.diag(S)
    z = 2.0 * S[iu, ju] - d[iu] - d[ju]
    # on the weight simplex a constant shift of z changes the
    # objective by a constant; the engine needs z >= 0
    return primal_dual_graph(weights_from_edge_vector(z - z.min(), n),
                             DegreeTerm("quadratic", 2.0), 2.0, config,
                             scale_sum=n / 2.0)


def primal_dual_graph(Z, g_spec: DegreeTerm, beta: float,
                      config: SolverConfig | None = None,
                      scale_sum: float | None = None):
    """Edge-weight learning engine.

    Solves, over the upper-triangular weight vector w >= 0 of a
    symmetric zero-diagonal W,

        min  2 z'w + g(Bw) + beta ||w||^2   [+ indicator sum(w) = scale_sum]

    where B maps weights to degrees ((Bw)_i sums the weights of the
    edges at vertex i; applied by index arithmetic, never stored) and g
    is the degree term (log barrier or quadratic).

    One proximal-point loop: round k solves the beta = rho problem with z
    replaced by z - (rho - beta) w_k. rho starts at beta when beta > 0
    (one round) and at mean(z)^2 when beta = 0, and falls tenfold per
    round, never below beta. Each round is semismooth Newton on the
    Lagrange dual of the split d = Bw, in its N multipliers v, with
    closed-form inner minimisers w(v) = max(0, -(2z + B'v)) / (2 rho)
    (with ``scale_sum``, the projection of -(2z + B'v) / (2 rho) onto the
    weight simplex, which eliminates the sum's multiplier exactly) and
    d(v) = grad g*(v). The dual gradient is d(v) - B w(v); the Newton
    matrix is the signless Laplacian of the active edges, weighted
    1 / (2 rho) (less its rank-one part along the sum), plus
    diag g*''(v). Armijo steps keep v in the domain of g*. The round at
    rho = beta is the problem itself and stops when
    ||Bw - d||_inf <= tol ||Bw||_inf, a rule that (c z, c^2 beta) meets
    at the same point scaled by 1 / c (at the empty graph both sides are
    zero). Earlier rounds end the loop once the projected-gradient KKT
    residual of the problem is at most ``tol`` times
    ``trace.notes["kkt_scale"]``. ``max_iters`` caps the Newton steps of
    all rounds. A solve that stops at that cap, on a step with no
    descent, or with a weight at ``WEIGHT_CAP`` (zero distances make
    the beta = 0 log-barrier problem unbounded) has ``converged`` false
    and gives one UserWarning naming the cause.

    Returns (W, trace); ``trace.iters_used`` counts Newton steps and
    ``trace.notes`` holds the KKT residual and its scale.
    """
    config = config or SolverConfig()
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if not 0 <= beta < math.inf:
        raise BadParameter(f"beta must be a finite number >= 0, got {beta!r}")
    if scale_sum is not None and scale_sum <= 0:
        raise BadParameter("scale_sum must be positive")
    if np.abs(Z - Z.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(Z).max()) or \
            Z.min(initial=0.0) < -1e-12:
        raise BadInput("Z must be symmetric and nonnegative")
    if n < 2:  # no vertex pairs, nothing to learn
        return np.zeros((n, n)), SolveTrace(converged=True)
    iu, ju = edge_index(n)
    z = Z[iu, ju]
    barrier = g_spec.kind == "log_barrier"

    def degrees(wv):  # B w
        return _vertex_sums(n, iu, ju, wv)

    def objective(wv):
        return 2.0 * float(z @ wv) + g_spec.value(degrees(wv)) + beta * float(wv @ wv)

    def inner(v, zz, b):
        """w(v), the negated dual objective of the beta = b problem at v,
        and grad / Hessian diagonal of g* at v."""
        c = 2.0 * zz + v[iu] + v[ju]
        if scale_sum is None:
            wv = np.maximum(-c, 0.0) / (2.0 * b)
        else:
            wv = project_simplex(-c / (2.0 * b), scale_sum)
        g_val, d_v, curv = g_spec.conjugate(v)
        return wv, g_val - float(c @ wv) - b * float(wv @ wv), d_v, curv

    trace = SolveTrace()

    def newton(v, zz, b, budget):
        """Returns (v, w(v), Newton steps taken, stopping rule met)."""
        wv, phi, d_v, curv = inner(v, zz, b)
        for k in range(budget + 1):
            bw = degrees(wv)
            grad = d_v - bw
            res = float(np.abs(grad).max())
            if res <= config.tol * float(bw.max()):
                return v, wv, k, True
            if k == budget:
                break
            a = (wv > 0) / (2.0 * b)
            H = _signless_laplacian(n, iu, ju, a, curv)
            if scale_sum is not None:
                da = degrees(a)
                H -= np.outer(da, da) / a.sum()
            step = np.linalg.solve(H, -grad)
            slope = float(grad @ step)
            t = 1.0
            up = step > 0
            if barrier and up.any():  # stay inside v < 0
                t = min(1.0, 0.99 * float(np.min(-v[up] / step[up])))
            while True:
                trial = inner(v + t * step, zz, b)
                if trial[1] <= phi + 1e-4 * t * slope + 1e-12 * max(1.0, abs(phi)):
                    break
                t *= 0.5
                if t < 1e-12:  # no descent left above rounding
                    return v, wv, k, False
            v = v + t * step
            wv, phi, d_v, curv = trial
            trace.log(objective(wv), res)
        return v, wv, budget, False

    def kkt_residual(wv):  # projected-gradient residual of the true problem
        gd = g_spec.grad(np.maximum(degrees(wv), 1e-300))
        grad = 2.0 * z + gd[iu] + gd[ju] + 2.0 * beta * wv
        if scale_sum is not None:
            step_pt = project_simplex(wv - grad, scale_sum)
        else:
            step_pt = np.maximum(wv - grad, 0.0)
        return float(np.abs(wv - step_pt).max(initial=0.0))

    kkt_scale = max(1.0, float(np.abs(2.0 * z).max()))
    rho = beta if beta > 0 else (float(z.mean()) if z.mean() > 0 else 1.0) ** 2
    v = np.zeros(n)
    if barrier:
        # every vertex starts with the edge to its nearest neighbour active
        nearest = (Z + np.diag(np.full(n, np.inf))).min(axis=1)
        v = -(2.0 * nearest + np.sqrt(g_spec.weight * rho))
    w = np.zeros(iu.size)
    while True:
        v, w, steps, done = newton(v, z - (rho - beta) * w, rho,
                                   config.max_iters - trace.iters_used)
        if rho == beta:  # the problem itself, ended by its own Newton rule
            trace.iters_used += steps
            break
        trace.iters_used += max(steps, 1)
        done = kkt_residual(w) <= config.tol * kkt_scale
        if done or trace.iters_used >= config.max_iters or w.max() >= WEIGHT_CAP:
            break
        rho = max(rho / 10.0, beta)
    capped = bool(w.max() >= WEIGHT_CAP)
    trace.converged = done and not capped
    if capped:
        w = np.minimum(w, WEIGHT_CAP)
        trace.notes["weight_cap"] = True
    if not trace.converged:
        cause = ("edge weights at WEIGHT_CAP (a near-unbounded problem)" if capped else
                 f"its {config.max_iters}-step cap" if trace.iters_used >= config.max_iters
                 else "a Newton step with no descent")
        warnings.warn(f"primal_dual_graph stopped at {cause} before its tol rule held",
                      stacklevel=2)
    trace.notes["kkt_residual"] = kkt_residual(w)
    trace.notes["kkt_scale"] = kkt_scale
    trace.log(objective(w))
    return weights_from_edge_vector(w, n), trace
