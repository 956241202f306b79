"""Reusable optimization kernels.

Contains the coordinate-descent lasso used by every regression-style
learner (one Gram matrix shared by many right-hand sides, each with its
own mask of usable coordinates), the proximal-gradient kernel of the
penalised Gaussian likelihood shared by the precision estimators, the
closed-form projection onto the shift constraint set, the one
spectral-template solve :func:`infer_shift` (exact at eps = 0 by closed
form, row-generation LP or NNLS, and at eps > 0 by one certified primal
active-set engine on the edge vector), and the edge-weight engine for
problems with degree terms: one proximal-point loop of semismooth Newton
solves on their N-variable Lagrange dual (a single round when the ridge
weight is positive), with the weight-to-degree map and the Newton matrix
built by index arithmetic. Edge vectors follow the order of
:func:`graphcore.edge_index`; the kernels share its per-N cache and that
of :func:`graphcore.edge_positions`.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput, BadParameter, Infeasible, SolverError
from .graphcore import SpectralBasis, edge_index, edge_positions, weights_from_edge_vector

WEIGHT_CAP = 1e6  # hard upper bound on learned edge weights
SPECTRAL_GAP_TOL = 1e-6  # spectral_gap's relative-decrease stop
SPECTRAL_GAP_MAX_ITERS = 3000


@dataclass(frozen=True)
class SolverConfig:
    """The two knobs shared by the iterative solvers: an iteration cap
    and a tolerance on each solver's KKT (optimality) residual: the
    lasso's relative change and projected-subgradient residual, the
    spectral active-set engine's relative reduced-cost and duality-gap
    residual (``max_iters`` counting support solves), the scale-free KKT
    residual of :func:`logdet_prox_gradient`, the PSD filter fit's
    gradient-mapping residual and the edge-weight engine's relative
    degree residual (``max_iters`` counting Newton steps). The exact
    eps = 0 spectral-template solves ignore both."""

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
    """One solve's report. ``status`` is "converged" (a stopping rule
    held), "exact" (a closed form or an optimal LP), "certified" (the
    spectral engine's KKT certificate held), "max_iters" (the cap ran out
    first) or "stalled" (no further progress). ``kkt_residual`` is the
    optimality residual, None where the solver has none; ``notes`` holds
    its other work counts."""

    objective: list = field(default_factory=list)
    status: str = "max_iters"
    iters_used: int = 0
    kkt_residual: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status in ("converged", "exact", "certified")

    def log(self, obj: float):
        if not np.isfinite(obj):
            raise BadInput("objective became non-finite")
        self.objective.append(float(obj))

    def stop(self, status: str, solver: str = "", limit: str = ""):
        """Set the status; "max_iters" and "stalled" give the one UserWarning,
        from the solver's caller, naming ``solver`` and the ``limit`` hit."""
        self.status = status
        if not self.converged:
            warnings.warn(f"{solver} stopped at {limit} before its stopping rule held",
                          stacklevel=3)


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

    Returns (B shaped like ``R``, one trace). Its status is "converged"
    when every problem met its stopping rule, else "max_iters" with one
    UserWarning counting the problems stopped there. ``iters_used`` sums
    their sweeps and ``objective`` holds each problem's sweep path in
    turn. ``notes["sweeps"]`` and ``notes["objectives"]`` list the
    per-problem sweep counts and final objectives. ``kkt_residual`` is the
    worst projected-subgradient residual over the allowed coordinates
    and ``notes["kkt_scale"]`` the largest max(1, |r|_inf) over them. A
    coordinate's residual is 0 after its update and moves by |G_jk delta_k|
    per later one, so a converged regression-form solve (G = A'A, r = A'b)
    has it at most ``tol`` max(1, max|B|) max_j sum_{k != j} |G_jk|.
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
    trace.iters_used, trace.kkt_residual = sum(sweeps), kkt
    trace.notes.update(sweeps=sweeps, objectives=finals, kkt_scale=scale)
    trace.stop("max_iters" if capped else "converged", "lasso_cd_gram",
               f"its {config.max_iters}-sweep cap on {capped} of {m} problems")
    return (B if R.ndim == 2 else B[0]), trace


def lasso_cd(A, b, lam, config: SolverConfig | None = None, penalty_weights=None):
    """Lasso 0.5 ||b - A beta||^2 + lam ||beta||_1 by coordinate descent.

    Returns (beta, trace) as :func:`lasso_cd_gram` does: status
    "max_iters", with a warning rather than an exception, when the sweep
    cap is hit, and the KKT residual as ``trace.kkt_residual``.
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
    / s, s = max|x|, is at most ``tol`` (status "converged"), or warns when
    ``max_iters`` ("max_iters") or 60 step halvings ("stalled") run out.
    Returns (x, trace), the residual as ``trace.kkt_residual``.
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
    trace.kkt_residual = residual
    if residual <= config.tol:
        trace.stop("converged")
    elif trace.iters_used == config.max_iters:
        trace.stop("max_iters", "logdet_prox_gradient",
                   f"its {config.max_iters}-iteration cap")
    else:
        trace.stop("stalled", "logdet_prox_gradient", "60 step halvings")
    return x, trace


# ---------------------------------------------------------------------------
# shift constraint sets


def _sym(M):
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class ShiftConstraintSet:
    """Feasible set for recovered shift operators: symmetric,
    nonnegative, zero diagonal, and the weighted degree of the first
    vertex equal to one (Segarra, Marques, Mateos & Ribeiro, "Network
    topology inference from spectral templates", 2017). It has no
    fields: the type owns the set's projection and violation check.
    """

    def violation(self, M) -> float:
        """Largest violation of the set's conditions by M."""
        M = np.asarray(M, float)
        off = M - np.diag(np.diag(M))
        return float(max(np.abs(M - M.T).max(initial=0.0), abs(float(M[:, 0].sum() - 1.0)),
                         -off.min(initial=0.0), np.abs(np.diag(M)).max(initial=0.0)))

    def project(self, M) -> np.ndarray:
        """Exact Euclidean projection onto the set, in closed form.

        After symmetrization it is a problem over the edge vector w >= 0
        (the upper triangle in :func:`edge_index` order): entrywise
        clipping plus one simplex projection over the entries tied by the
        scale equality, the pairs (0, j) that lead the edge order. It
        gathers sym(M)'s upper triangle and scatters w through the cached
        flat positions of :func:`edge_positions`, without forming sym(M).
        Raises Infeasible for N < 2, where no edge can meet the scale
        equality.
        """
        M = np.asarray(M, float)
        n = M.shape[0]
        if M.shape != (n, n):
            raise BadInput("projection needs a square matrix")
        if n < 2:
            raise Infeasible("the shift constraint sets are empty for N < 2")
        up, lo = edge_positions(n)
        flat = M.ravel()
        vals = 0.5 * (flat[up] + flat[lo])  # sym(M) at the pairs
        w = np.maximum(vals, 0.0)
        w[:n - 1] = project_simplex(vals[:n - 1], 1.0)
        out = np.zeros(n * n)
        out[up] = w
        out[lo] = w
        return out.reshape(n, n)


# ---------------------------------------------------------------------------
# spectral templates: l1-minimal shifts with a prescribed (partial) eigenbasis


class SpectralCoupling:
    """Projection onto the span of a full orthonormal basis V's rank-one
    eigen-matrices, {V diag(lam) V'}: the matrices V diagonalizes."""

    def __init__(self, V: np.ndarray):
        self.V = np.asarray(V, float)

    def project(self, M):
        Mt = self.V.T @ _sym(M) @ self.V
        return _sym(self.V @ np.diag(np.diagonal(Mt)) @ self.V.T)


_NORMS = {"l1": lambda S: float(np.abs(S).sum()), "linf": lambda S: float(np.abs(S).max()),
          "frobenius": lambda S: float(np.linalg.norm(S))}


def spectral_gap(V):
    """Distance between the shift constraint set and the span of the
    basis's rank-one eigen-matrices, by alternating projections (projected
    gradient steps on half the squared distance to the span) with Nesterov
    momentum and a function-value restart (O'Donoghue & Candes, "Adaptive
    restart for accelerated gradient schemes", 2015): the momentum resets
    whenever an iteration's distance exceeds the previous one. Each
    iteration projects the extrapolated point onto the span (T) and T onto
    the set (S), so every pair is feasible. Stops once an iteration that
    does not restart lowers the distance by at most ``SPECTRAL_GAP_TOL``
    relative; warns when ``SPECTRAL_GAP_MAX_ITERS`` runs out first.

    Returns (gap, S, trace): the smallest ||S - T||_F seen, an upper bound
    on the true gap (every eps at or above it is feasible), the member S
    that reached it, within gap of the span, and a trace logging each
    iteration's distance, with status "max_iters" when capped.
    """
    V = np.asarray(V, dtype=float)
    coupling = SpectralCoupling(V)
    cset = ShiftConstraintSet()
    S = S_prev = best_S = cset.project(np.ones((V.shape[0], V.shape[0])))
    t = 1.0
    prev = best = np.inf
    trace = SolveTrace()
    for it in range(SPECTRAL_GAP_MAX_ITERS):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        T = coupling.project(S + ((t - 1.0) / t_next) * (S - S_prev))
        S_prev, S = S, cset.project(T)
        dist = float(np.linalg.norm(S - T))
        trace.log(dist)
        trace.iters_used = it + 1
        if dist < best:
            best, best_S = dist, S
        if dist > prev:
            t = 1.0  # restart: the next step is a plain projection pair
        elif prev - dist <= SPECTRAL_GAP_TOL * max(dist, 1e-12):
            trace.stop("converged")
            break
        else:
            t = t_next
        prev = dist
    else:
        trace.stop("max_iters", "spectral_gap", f"its {SPECTRAL_GAP_MAX_ITERS}-iteration cap")
    return best, best_S, trace


# HiGHS's primal feasibility tolerance, passed to every solve: row
# generation stops once no row left out is violated by more than it
_LP_FEAS_TOL = 1e-7
# smallest singular value, relative to the largest, at which the equality
# rows of :func:`_spectral_lp` are taken to fix its point
_LP_RANK_FLOOR = 1e-8


def _spectral_lp(V, cset: ShiftConstraintSet, objective: str):
    """Exact eps = 0 solve: min ||S||_1 (or ||S||_inf, ||S||_F) over the
    members S of the set that equal V diag(lam) V' + Vc Z Vc', with Z a
    free symmetric block on an orthonormal complement Vc of a partial
    N x K basis (empty for a full one).

    With U = [V Vc], LP variable m scales (u_p u_q' + u_q u_p') / 2 for
    the column pair (p_m, q_m): (k, k) for each eigenvalue, (a, b) with
    a <= b for each entry of Z. Every row's coefficients are index
    arithmetic on U and s = U'1: variable m adds s_p s_q to 1'S1, (U[0, p]
    s_q + s_p U[0, q]) / 2 to the first column's sum and [p = q] to
    tr(S). The set fixes the sign of each entry, so both norms are
    linear there: ||S||_1 = 1'S1 - tr(S), and the sup-norm takes one
    epigraph variable t >= 0 with a row S_ij <= t per pair (the diagonal
    is zero, so t >= 0 covers it).

    Equality rows (the zero diagonal and the first column's sum) of full
    column rank (least singular value above ``_LP_RANK_FLOOR`` of the
    largest, as for most full bases) admit at most one point, read by
    least squares: Infeasible when an equality, sign or epigraph row (t
    least) misses by more than ``_LP_FEAS_TOL``, else the optimum of every
    objective, with no LP solve (Segarra, Marques, Mateos & Ribeiro,
    2017). scipy is imported only past this point.

    Otherwise free directions remain. The Frobenius objective is ||x o
    r|| (r = 1 at (k, k), sqrt(1/2) elsewhere): with y = x o r = y0 + Z v,
    y0 least-norm on the equality rows and Z their null space, min ||v||
    s.t. (G Z) v >= -G y0 on the sign rows G is one NNLS (Lawson &
    Hanson, Solving Least Squares Problems, 1974, ch. 23). The LPs run
    HiGHS with delayed row generation (Bertsimas & Tsitsiklis,
    Introduction to Linear Optimization, 6.1): every equality row is in
    every solve, while the inequality rows - one sign row per pair, plus
    the sup-norm's epigraph row per pair - start as those of the first
    vertex's N - 1 pairs. Each round stops when no row left out is
    violated by more than ``_LP_FEAS_TOL``, HiGHS's own feasibility
    tolerance: a relaxation whose solution every row accepts is optimal
    for the full LP. Otherwise it adds the 4N left-out rows of largest
    value, violated or nearly binding. The implied row ||S||_1 >= 0 keeps
    each restricted l1 LP bounded; an infeasible one raises Infeasible.
    The final point is projected onto the set, so that its structural
    constraints hold exactly.

    Returns (S, trace) with status "exact" (the caller reads lam off S);
    a HiGHS solve that ends short of optimality raises SolverError.
    ``iters_used`` sums the simplex iterations, ``notes["lp_rounds"]``
    counts the solves (0 for the closed form, 1 for the NNLS) and
    ``notes["lp_rows"]`` / ``notes["lp_rows_full"]`` give the inequality
    rows of the final solve and of the full LP.
    """
    n, k = V.shape
    U = V if k == n else np.hstack([V, np.linalg.qr(V, mode="complete")[0][:, k:]])
    za, zb = np.triu_indices(n - k)
    p = np.concatenate([np.arange(k), k + za])
    q = np.concatenate([np.arange(k), k + zb])
    up, uq = U[:, p], U[:, q]

    def entry_rows(i, j):
        """Coefficients of S_ij in the LP variables, one row per pair."""
        return 0.5 * (up[i] * uq[j] + uq[i] * up[j])

    def assemble(x):
        C = np.zeros((n, n))
        C[p, q] = x[: p.size]
        return U @ _sym(C) @ U.T

    s = U.sum(axis=0)  # U'1
    sp, sq = s[p], s[q]
    # zero diagonal, and the first column sums to 1
    a_eq = np.vstack([up * uq, 0.5 * (U[0, p] * sq + sp * U[0, q])])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    # the pool of inequality rows: row r reads coef[r] S_{ri, rj} + tcoef[r] t <= 0
    iu, ju = edge_index(n)
    ones = np.ones(iu.size)
    ri, rj, coef, tcoef = iu, ju, -ones, np.zeros(iu.size)
    first = np.arange(n - 1)  # the pairs (0, j) lead the edge order
    if objective == "linf":  # S_ij - t <= 0 per pair: |S_ij| = S_ij on the set
        ri, rj = np.concatenate([iu, iu]), np.concatenate([ju, ju])
        coef, tcoef = np.concatenate([coef, ones]), np.concatenate([tcoef, -ones])
        first = np.concatenate([first, iu.size + first])
    fixed = a_eq.shape[0] >= p.size  # fewer rows than variables leave free directions
    if fixed:
        x, _, _, sv = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        fixed = sv[-1] > _LP_RANK_FLOOR * sv[0]
    if fixed:
        S = assemble(x)
        viol = coef * S[ri, rj]
        viol += tcoef * viol.max(where=tcoef < 0, initial=0.0)  # t at its least
        if (np.abs(a_eq @ x - b_eq) > _LP_FEAS_TOL).any() or (viol > _LP_FEAS_TOL).any():
            raise Infeasible("no member of the constraint set is exactly "
                             "diagonalized by the given basis")
        rounds = n_rows = nit = 0
    elif objective == "frobenius":  # least distance by NNLS
        from scipy.optimize import nnls
        # ||S||_F = ||x * r||: the pair (a, b), a < b, appears twice in sym(C)
        r = np.where(p == q, 1.0, math.sqrt(0.5))
        left, sv, right = np.linalg.svd(a_eq / r)
        rank = int((sv > _LP_RANK_FLOOR * sv[0]).sum())
        y0 = right[:rank].T @ ((left[:, :rank].T @ b_eq) / sv[:rank])
        free = right[rank:].T  # orthonormal free directions
        G = entry_rows(iu, ju) / r  # G y >= 0: the sign rows
        # min ||v|| s.t. (G free) v >= -G y0 - tol by one NNLS on [(G free)';
        # (-G y0 - tol)']: the slack keeps rows that force an entry to 0 in
        # opposite senses from meeting in an empty slab by rounding
        E = np.vstack([(G @ free).T, -(G @ y0) - _LP_FEAS_TOL])
        f = np.append(np.zeros(E.shape[0] - 1), 1.0)
        res = E @ nnls(E, f)[0] - f
        x = (y0 - free @ res[:-1] / res[-1]) / r if res[-1] < 0 else y0 / r
        S = assemble(x)
        if (res[-1] >= 0 or np.abs(a_eq @ x - b_eq).max() > _LP_FEAS_TOL
                or -S[iu, ju].min() > _LP_FEAS_TOL):
            raise Infeasible("no member of the constraint set is exactly "
                             "diagonalized by the given basis")
        rounds, n_rows, nit = 1, iu.size, 0
    else:  # free directions remain: HiGHS with row generation
        from scipy.optimize import linprog

        c = sp * sq - (p == q)  # ||S||_1 = 1'S1 - tr(S) on the set
        floor = [-c]
        bounds = (None, None)
        if objective == "linf":
            a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
            c = np.zeros(p.size + 1)
            c[-1] = 1.0
            floor = []
            bounds = [(None, None)] * p.size + [(0.0, None)]

        def pool_rows(r):
            rows = coef[r, None] * entry_rows(ri[r], rj[r])
            return rows if objective != "linf" else np.hstack([rows, tcoef[r, None]])

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
            if res.status != 0:
                raise SolverError(f"spectral LP failed: {res.message}")
            S = assemble(res.x)
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
        n_rows = a_ub.shape[0]
    S = cset.project(S)
    trace = SolveTrace(status="exact", iters_used=nit)
    trace.log(_NORMS[objective](S))
    trace.notes.update(constraint_violation=float(cset.violation(S)),
                       lp_rounds=rounds, lp_rows=n_rows, lp_rows_full=coef.size)
    return S, trace


_FINISH_ROUNDING = 1e-9  # relative slack of the certificates' ball and set checks


class _EdgeKKT:
    """The eps > 0 problem on the edge vector w of S (:func:`edge_index`
    order): w >= 0, a'w = 1 (a marks the first vertex's pairs) and w'Aw <=
    eps^2, A = 2I - BB', B[e, k] = 2 V[i, k] V[j, k], w'Aw the squared
    distance to the span; ||S||_1 = c'w (c = 2), ||S||_F^2 = 2 w'w. A
    support E is solved through the N x N M = 2I - B_E'B_E (2D'D + B_F'B_F
    over the fewer pairs F left out, D = V o V), B and B' applied as N x N
    products; ``solves`` counts those of :meth:`walk` and :meth:`qp`
    against ``config.max_iters``."""

    def __init__(self, V, eps: float, config: SolverConfig):
        self.V, self.n, self.eps = V, V.shape[0], eps
        self.iu, self.ju = edge_index(self.n)
        self.up = edge_positions(self.n)[0]
        self.a = (self.iu == 0).astype(float)
        self.c = np.full(self.iu.size, 2.0)
        self.tol, self.budget, self.solves = config.tol, config.max_iters, 0
        self.DD = 2.0 * (V * V).T @ (V * V)

    def b_t(self, x):  # B'x = diag(V' W(x) V) for an edge vector x
        return np.einsum("ik,ik->k", self.V, weights_from_edge_vector(x, self.n) @ self.V)

    def b_op(self, y):  # By over every pair: 2 (V diag(y) V')_ij
        return 2.0 * ((self.V * y) @ self.V.T).ravel()[self.up]

    def dist2(self, w):  # w'Aw = ||offdiag(V'W(w)V)||_F^2, the squared distance to the span
        return float(np.linalg.norm(_offdiag(self.V.T @ weights_from_edge_vector(w, self.n)
                                             @ self.V))) ** 2

    def a_op(self, w):  # Aw = 2 (V offdiag(V'W(w)V) V')_ij, free of cancellation near the span
        R = _offdiag(self.V.T @ weights_from_edge_vector(w, self.n) @ self.V)
        return 2.0 * (self.V @ R @ self.V.T).ravel()[self.up]

    def schur(self, E):  # M of support E
        V, iu, ju = self.V, self.iu, self.ju
        if 2 * np.count_nonzero(E) <= E.size:
            BE = 2.0 * V[iu[E]] * V[ju[E]]
            return 2.0 * np.eye(self.n) - BE.T @ BE
        Bc = 2.0 * V[iu[~E]] * V[ju[~E]]  # B'B = 2I - 2D'D over all pairs
        return self.DD + Bc.T @ Bc

    def solve(self, E):
        """(w, nu, mu) of the l1 problem's ball-active KKT point on E, or
        None: w_E = -A_EE^-1 (c + nu a) / (2 mu), A_EE^-1 = (I + B_E M^-1
        B_E') / 2 (Woodbury, one Cholesky factor of M), nu a root of the
        scale and ball's quadratic, mu = sqrt(f(nu)) / (2 eps) with f the
        quadratic form of A_EE^-1 (c + nu a)."""
        self.solves += 1
        V, n, a, k = self.V, self.n, self.a, 1.0 / (self.eps * self.eps)
        try:  # numpy's factor: scipy.linalg alone takes 0.27 s to import
            L = np.linalg.cholesky(self.schur(E))
        except np.linalg.LinAlgError:
            return None

        def a_inv(r):  # A_EE^-1 r, r on E
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

    def walk(self, w):
        """Primal active-set walk on the l1 problem (Nocedal & Wright,
        Numerical Optimization, ch. 16) from the feasible w: a solution of
        :meth:`solve` with weights <= 0 drops them (and those of further
        solves) if c'w does not rise, else w steps toward it to the first
        zero weight, whose edge leaves; edges with reduced cost z = c + nu a
        + 2 mu Aw below -tol max|c| join. With none: (S, KKT residual) if S
        lies in the set and within eps (up to ``_FINISH_ROUNDING``) and the
        residual, max |z_e| on the support and -z_e off it over max|c| = 2,
        is at most ``tol``; else None, as on a failed solve or budget."""
        E = w > 0
        while self.solves < self.budget:
            sol = self.solve(E)
            if sol is None:
                return None
            neg = E & (sol[0] <= 0)
            if neg.any():
                kept, bulk = E, sol
                while (bulk is not None and (bulk[0][kept] <= 0).any()
                       and self.solves < self.budget):
                    kept = kept & (bulk[0] > 0)
                    bulk = self.solve(kept)
                if (bulk is None or (bulk[0][kept] <= 0).any()
                        or self.c @ bulk[0] > self.c @ w):
                    ratio = w[neg] / np.maximum(w[neg] - sol[0][neg], np.finfo(float).tiny)
                    j = np.flatnonzero(neg)[np.argmin(ratio)]
                    w = np.maximum(w + ratio.min() * (sol[0] - w), 0.0)
                    w[j], E[j] = 0.0, False
                    continue
                sol, E = bulk, kept
            w, nu, mu = sol
            S = weights_from_edge_vector(w, self.n)
            Mt = self.V.T @ S @ self.V
            z = self.c + nu * self.a + 2.0 * mu * (2.0 * w - self.b_op(np.diagonal(Mt)))
            add = ~E & (z < -2.0 * self.tol)
            if not add.any():
                kkt = max(float(np.abs(z[E]).max()), float(-z[~E].min(initial=0.0))) / 2.0
                return (S, kkt) if (kkt <= self.tol and float(np.linalg.norm(_offdiag(Mt)))
                                    <= self.eps * (1.0 + _FINISH_ROUNDING)
                                    and ShiftConstraintSet().violation(S)
                                    <= _FINISH_ROUNDING) else None
            E = E | add
        return None

    def eqp(self, F, fixed, sigma, tau, c):
        """(x, nu): the minimiser of q(x) = x'Hx / 2 + c'x, H = sigma I +
        tau A, on the edges F (the others at ``fixed``) s.t. a'x = 1, and
        that row's multiplier: x = (tau B_F y - g - nu a_F) / alpha, alpha =
        sigma + 2 tau and g = c + H fixed, where (y = B_F'x, nu) solves a
        bordered N + 1 system in sigma I + tau M, the Woodbury form. A
        singular one gives (d, None): d on F, a'd = 0, q linear along d."""
        self.solves += 1
        n, aF = self.n, self.a * F
        alpha, na = sigma + 2.0 * tau, max(math.sqrt(aF.sum()), 1.0)
        g = np.where(F, c + tau * self.a_op(fixed), 0.0) / alpha  # fixed is 0 on F
        ba = self.b_t(aF)[:, None] / na  # 0 with no first-vertex pair on F
        K = np.block([[(sigma * np.eye(n) + tau * self.schur(F)) / alpha, ba],
                      [tau / alpha * ba.T, -np.ones((1, 1))]])
        rhs = np.append(-self.b_t(g), (1.0 - self.a @ fixed + aF @ g) / na)
        left, sv, right = np.linalg.svd(K)
        singular = sv[-1] <= 1e-11 * sv[0]  # the least over the largest singular value
        y = right[-1] if singular else right.T @ ((left.T @ rhs) / sv)
        x = tau / alpha * self.b_op(y[:n]) - y[n] / na * aF
        if singular:
            return np.where(F, x, 0.0), None
        return np.where(F, x - g, fixed), alpha * y[n] / na

    def qp(self, sigma, tau, c, w, t=math.inf, stop=-1.0):
        """Primal active set (Goldfarb & Idnani, Math. Programming 1983;
        Nocedal & Wright, ch. 16) for min q(w) s.t. w >= 0, a'w = 1, w <= t
        from the feasible w (its largest weights start bound when below t).
        An :meth:`eqp` solution on the free edges F out of bounds has them
        all bound, if that reaches a feasible point below q(w); else w steps
        toward it, or along a singular direction, the sense not raising q,
        to the first bound, whose edge leaves F. At one within bounds the 4N
        edges (or fewer) whose reduced cost z = grad q + nu a errs most in
        sign, by over ``tol`` max|grad q|, join. Returns (w, the rows w <=
        t's multiplier sum, the largest error) at the optimum, else (w, 0,
        inf) once w'Aw <= ``stop``, the budget is spent, a direction meets
        no bound or pricing stops descending."""
        def grad(x):
            return sigma * x + tau * self.a_op(x) + c

        def value(x):
            return 0.5 * (sigma * (x @ x) + tau * self.dist2(x)) + float(np.sum(c * x))

        def ratio(p, cap):  # the longest step s <= cap along p within bounds, and its edge
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(F & (p < 0), -w / p, np.where(F & (p > 0), (t - w) / p, np.inf))
            j = int(np.argmin(r))
            return min(r[j], cap), j

        U = (w >= min(t, w.max())) & (t < math.inf)
        F, last = (w > 0) & ~U, math.inf  # q at the last pricing
        while (stop < 0 or self.dist2(w) > stop) and self.solves < self.budget:
            x, nu = self.eqp(F, np.where(U, t, 0.0), sigma, tau, c)
            Fb, Ub, xb, nub = F, U, x, nu
            while nub is not None and self.solves < self.budget and (
                    bad := Fb & ((xb <= 0) | (xb >= t))).any():
                Fb, Ub = Fb & ~bad, Ub | (bad & (xb >= t))
                xb, nub = self.eqp(Fb, np.where(Ub, t, 0.0), sigma, tau, c)
            if (xb is not x and nub is not None and not (Fb & ((xb <= 0) | (xb >= t))).any()
                    and abs(self.a @ xb - 1.0) <= _FINISH_ROUNDING and value(xb) < value(w)):
                x, nu, F, U = xb, nub, Fb, Ub
            if nu is None or (F & ((x <= 0) | (x >= t))).any():
                p = x - w
                if nu is None:  # the sense that meets a bound, the descent one if both do
                    p = max((x, -x), key=lambda d: (ratio(d, math.inf)[0] < math.inf,
                                                    -(grad(w) @ d)))
                s, j = ratio(p, 1.0 if nu is not None else math.inf)
                if s == math.inf:
                    break
                w = np.clip(w + s * p, 0.0, t)
                w[j] = 0.0 if p[j] < 0 else t
                F, U = F.copy(), U.copy()
                F[j], U[j] = False, p[j] > 0
                continue
            w, q = x, value(x)
            if q >= last:
                break
            gq, last = grad(w), q
            z = gq + nu * self.a
            viol = np.where(F, np.abs(z), np.where(U, z, -z)) / max(
                float(np.abs(gq).max()), np.finfo(float).tiny)
            add = ~F & (viol > self.tol)
            if not add.any():
                return w, float(-z[U].sum()), float(viol.max())
            if add.sum() > 4 * self.n:  # the 4N largest, as in _spectral_lp's row generation
                add &= viol >= np.partition(viol[add], -4 * self.n)[-4 * self.n]
            F, U = F | add, U & ~add
        return w, 0.0, math.inf

    def root(self, objective, w):
        """(S, KKT residual) of ``objective`` from w, a member within eps, by
        one monotone root on a bracket (regula falsi with the Illinois step,
        Dowell & Jarratt, BIT 1971). For the sup-norm it is the least bound
        t in [1 / (N - 1), max(w)] with h(t) <= eps^2, h(t) = min w'Aw s.t.
        w <= t by :meth:`qp`: convex and falling, so the bracket takes Newton
        steps on it (slope -1 / mu, mu the ball multiplier), bisecting where
        it is flat. For l1 and Frobenius (f = w'w) it is theta in (0, 1): qp
        minimises the Lagrangian theta w'Aw + (1 - theta) f(w), mu = theta /
        (1 - theta). A point within eps lies at most min(mu (eps^2 - w'Aw),
        f - f_min) above the optimum (f_min the least f on the set):
        certified when that over f, and :meth:`qp`'s residual, are at most
        ``tol``. Else (the last point within eps, None)."""
        eps2, least, nearest = self.eps ** 2, 1.0 / (self.n - 1), self.a / (self.n - 1)
        linf, frob = objective == "linf", objective == "frobenius"
        lo, hi = (least, w.max()) if linf else (0.0, 1.0)
        f_lo, f_hi = math.sqrt(self.dist2(nearest)) - self.eps, math.sqrt(self.dist2(w)) - self.eps
        side, x, s = 0, w, hi
        while self.solves < self.budget:
            if not lo < s < hi:  # regula falsi, else bisection
                s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
                s = s if lo < s < hi else 0.5 * (lo + hi)
            if not lo < s < hi:
                break
            if linf:  # from x, blended toward nearest until its max is s
                f = min(1.0, (s - least) / (x.max() - least))  # its largest weights end at s
                x = np.where((x >= x.max()) & (f < 1.0), s, nearest + f * (x - nearest))
                x, pi, res = self.qp(0.0, 2.0, 0.0, x, t=s)
                mu, f, f_min = 1.0 / pi if pi > 0 else math.inf, s, least
            else:
                x, _, res = self.qp(2.0 * (1.0 - s) * frob, 2.0 * s,
                                    0.0 if frob else 2.0 * (1.0 - s), x)
                mu = s / (1.0 - s)
                f, f_min = (x @ x, least) if frob else (2.0 * x.sum(), 2.0)
            x = x / (self.a @ x)
            g = self.dist2(x)
            if res == math.inf and not (linf and g <= eps2):  # a point within eps bounds t
                break
            kkt = max(res, min(mu * (eps2 - g) if g < eps2 else 0.0, f - f_min) / f)
            if g <= eps2 * (1.0 + _FINISH_ROUNDING) ** 2 and kkt <= self.tol:
                return weights_from_edge_vector(x, self.n), kkt
            if g > eps2:
                lo, f_lo, f_hi = s, math.sqrt(g) - self.eps, f_hi * (0.5 if side < 0 else 1.0)
                side = -1
            else:
                hi, f_hi, w = s, math.sqrt(g) - self.eps, x
                f_lo *= 0.5 if side > 0 else 1.0
                side = 1
            s = (s + (g - eps2) * mu if mu < math.inf else 0.5 * (lo + hi)) if linf else hi
        return weights_from_edge_vector(w, self.n), None


def _offdiag(M):
    np.fill_diagonal(M, 0.0)
    return M


def infer_shift(basis, constraint_set: ShiftConstraintSet | None = None,
                eps: float | str = 0.0, objective: str = "l1",
                config: SolverConfig | None = None):
    """The spectral-template solve (Segarra, Marques, Mateos & Ribeiro,
    "Network topology inference from spectral templates", 2017): min
    f(S), f the l1, sup or Frobenius norm, s.t. S in the constraint set
    (default :class:`ShiftConstraintSet`) and ||S - V diag(lam) V'||_F <=
    eps for the basis V: a SpectralBasis, an orthonormal N x N matrix or
    an N x K matrix of orthonormal columns (a partial basis, leaving S's
    block on the complement free; it needs eps = 0 and the l1 or
    sup-norm objective). Anything not 2-D raises BadInput.

    ``eps="auto"`` keeps eps = 0 when the eps = 0 solve finds a member
    that V diagonalizes, else takes twice :func:`spectral_gap`;
    ``trace.notes["eps"]`` is the eps solved at. At eps = 0
    :func:`_spectral_lp` solves exactly (status "exact", ``config``
    ignored). At eps > 0 the set's point nearest zero, optimal for all
    three norms on the set, is returned when within eps ("exact"); else
    :class:`_EdgeKKT` runs, ``iters_used`` counting its support solves
    against ``max_iters``. Phase 1, its active set on the squared
    distance to the span from that point (for l1 with eps="auto", from
    spectral_gap's member), stops at the first member within eps and
    raises Infeasible when the exact gap exceeds eps; the walk solves l1,
    and one monotone root the sup-norm, the Frobenius norm and an l1
    walk that does not certify. A "certified" result has ``kkt_residual``
    at most ``tol``; one that spends ``max_iters`` ("max_iters") or stalls
    at rounding ("stalled") gives its last point and warns.

    Returns (S, lam, trace), lam = diag(V'SV) of the returned S. Raises
    Infeasible when no member of the set lies within eps of the span.
    """
    config = config or SolverConfig()
    constraint_set = constraint_set or ShiftConstraintSet()
    V = np.asarray(basis.vecs if isinstance(basis, SpectralBasis) else basis, dtype=float)
    if V.ndim != 2:
        raise BadInput(f"the basis must be an N x N or N x K matrix, got {V.ndim}-D")
    if not (eps == "auto" or isinstance(eps, numbers.Real) and 0 <= eps < math.inf):
        raise BadParameter(f"eps must be 'auto' or a finite number >= 0, got {eps!r}")
    if objective not in _NORMS:
        raise BadParameter(f"unknown objective {objective!r}")
    n = V.shape[0]
    if np.abs(V.T @ V - np.eye(V.shape[1])).max(initial=0.0) > 1e-8:
        raise BadInput("basis columns must be orthonormal")
    if V.shape[1] != n and (eps != 0 or objective == "frobenius"):
        raise BadParameter("a partial basis needs eps = 0 and the l1 or linf objective")
    lp = start = None
    if eps == "auto":
        try:
            lp, eps = _spectral_lp(V, constraint_set, objective), 0.0
        except Infeasible:
            gap, start, _ = spectral_gap(V)
            eps = 2.0 * gap
    notes = {"eps": float(eps)}
    if eps == 0:
        S, trace = lp or _spectral_lp(V, constraint_set, objective)  # or raise Infeasible
    else:
        S, kkt, solves = constraint_set.project(np.zeros((n, n))), None, 0
        if np.linalg.norm(_offdiag(V.T @ S @ V)) > eps:  # else the nearest member, optimal
            edge = _EdgeKKT(V, eps, config)
            w = (S if start is None or objective != "l1" else start).ravel()[edge.up]
            w, _, res = edge.qp(0.0, 2.0, 0.0, w, stop=eps * eps)  # phase 1
            gap = math.sqrt(edge.dist2(w))
            if gap > eps and res < math.inf:
                raise Infeasible(f"eps {eps:.6g} is below the basis's feasibility gap {gap:.6g}")
            S, kkt = (((objective == "l1" and edge.walk(w)) or edge.root(objective, w))
                      if gap <= eps else (weights_from_edge_vector(w, n), None))
            solves = edge.solves
        trace = SolveTrace(iters_used=solves, kkt_residual=kkt)
        trace.log(_NORMS[objective](S))
        capped = solves >= config.max_iters
        trace.stop("exact" if not solves else "certified" if kkt is not None else
                   "max_iters" if capped else "stalled", "infer_shift",
                   f"its {config.max_iters}-solve cap" if capped else "rounding")
        notes["constraint_violation"] = float(constraint_set.violation(S))
    trace.notes.update(notes)
    return S, np.diag(V.T @ S @ V).copy(), trace


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
    all rounds. A solve that stops at that cap has status "max_iters";
    one that stops on a step with no descent, or with a weight at
    ``WEIGHT_CAP`` (zero distances make the beta = 0 log-barrier problem
    unbounded), has status "stalled". Either gives one UserWarning.

    Returns (W, trace); ``iters_used`` counts Newton steps and
    ``kkt_residual`` is the problem's projected-gradient KKT residual at W:
    for a converged solve, at most ``tol`` ``notes["kkt_scale"]`` when an
    earlier round ended it, else (w = w(v) exactly) at most
    2 max_i |g'((Bw)_i) - g'(d_i)|, twice that with ``scale_sum``: for the
    quadratic term, 2 weight ``tol`` ||Bw||_inf.
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
        return np.zeros((n, n)), SolveTrace(status="exact")
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
            trace.log(objective(wv))
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
    if w.max() >= WEIGHT_CAP:
        w = np.minimum(w, WEIGHT_CAP)
        trace.notes["weight_cap"] = True
        trace.stop("stalled", "primal_dual_graph",
                   "edge weights at WEIGHT_CAP (a near-unbounded problem)")
    elif done:
        trace.stop("converged")
    elif trace.iters_used >= config.max_iters:
        trace.stop("max_iters", "primal_dual_graph", f"its {config.max_iters}-step cap")
    else:
        trace.stop("stalled", "primal_dual_graph", "a Newton step with no descent")
    trace.kkt_residual, trace.notes["kkt_scale"] = kkt_residual(w), kkt_scale
    trace.log(objective(w))
    return weights_from_edge_vector(w, n), trace
