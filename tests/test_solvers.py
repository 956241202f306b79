import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq, linprog, minimize

import glkit.graphcore as gc
import glkit.simulate as sim
import glkit.solvers as sv
import glkit.spectralid as sid
from glkit.errors import BadInput, BadParameter, Infeasible
from glkit.metrics import scale_aligned_error


def make_config(**kw):
    return sv.SolverConfig(**kw)


class TestSolverConfig:
    def test_numpy_scalars_accepted(self):
        cfg = sv.SolverConfig(max_iters=np.int64(7), tol=np.float64(1e-3))
        assert (cfg.max_iters, cfg.tol) == (7, 1e-3)

    @pytest.mark.parametrize("kw", [
        {"max_iters": 0}, {"max_iters": 2.5}, {"max_iters": True},
        {"max_iters": "10"}, {"max_iters": None}, {"tol": 0.0},
        {"tol": -1e-3}, {"tol": np.inf}, {"tol": np.nan}, {"tol": "abc"},
        {"tol": None}, {"tol": True}])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(BadParameter):
            sv.SolverConfig(**kw)


class TestLassoCD:
    def test_ols_limit(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        b = rng.standard_normal(6)
        beta, trace = sv.lasso_cd(A, b, 0.0, make_config(max_iters=20000, tol=1e-12))
        np.testing.assert_allclose(beta, np.linalg.solve(A, b), atol=1e-6)

    def test_deadzone_gives_zero(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((30, 5))
        b = rng.standard_normal(30)
        lam = np.abs(A.T @ b).max() * 1.001
        beta, _ = sv.lasso_cd(A, b, lam)
        assert np.all(beta == 0.0)

    def test_identity_design_soft_threshold(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(8)
        beta, _ = sv.lasso_cd(np.eye(8), b, 0.3)
        np.testing.assert_allclose(beta, sv.soft_threshold(b, 0.3), atol=1e-10)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((40, 12))
            b = rng.standard_normal(40)
            lam = 2.0
            beta, trace = sv.lasso_cd(A, b, lam, make_config(tol=1e-10))
            grad = A.T @ (A @ beta - b)
            scale = np.abs(A.T @ b).max()
            for j in range(12):
                if beta[j] == 0:
                    assert abs(grad[j]) <= lam + 1e-6 * scale
                else:
                    assert grad[j] + lam * np.sign(beta[j]) == pytest.approx(
                        0.0, abs=1e-6 * scale)

    def test_objective_monotone_across_sweeps(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((25, 10))
        b = rng.standard_normal(25)
        _, trace = sv.lasso_cd(A, b, 0.5)
        objs = np.array(trace.objective)
        assert np.all(np.diff(objs) <= 1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(BadInput):
            sv.lasso_cd(np.array([[np.nan, 1.0]]), np.array([1.0]), 0.1)

    def test_iteration_cap_flags_not_converged(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((50, 20))
        with pytest.warns(UserWarning, match="1 of 1 problems at its 1-sweep cap"):
            beta, trace = sv.lasso_cd(A, rng.standard_normal(50), 0.01,
                                      make_config(max_iters=1, tol=1e-14))
        assert trace.converged is False
        # one warning per call, however many rows stop at the cap
        R = rng.standard_normal((3, 50)) @ A
        with pytest.warns(UserWarning, match="3 of 3 problems") as record:
            _, trace = sv.lasso_cd_gram(A.T @ A, R, 0.01,
                                        make_config(max_iters=1, tol=1e-14))
        assert len(record) == 1 and trace.converged is False

    def test_penalty_weights_exempt_coordinates(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((40, 3))
        b = A @ np.array([0.0, 0.0, 2.0]) + 0.01 * rng.standard_normal(40)
        lam = 0.8 * np.abs(A.T @ b).max()
        beta, _ = sv.lasso_cd(A, b, lam, penalty_weights=[1.0, 1.0, 0.0])
        assert beta[2] != 0.0  # unpenalized coordinate survives


class TestLassoCDGramBatch:
    @given(k=hst.integers(1, 8), m=hst.integers(1, 5), lam=hst.floats(0.0, 3.0),
           u=hst.floats(-3.0, 3.0), seed=hst.integers(0, 2 ** 32 - 1))
    def test_rows_independent_masked_and_scale_free(self, k, m, lam, u, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((k + 10, k))
        G = A.T @ A
        R = rng.standard_normal((m, k + 10)) @ A
        mask = rng.random((m, k)) < 0.7
        pw = rng.choice([0.0, 1.0], size=(m, k), p=[0.2, 0.8])
        beta0 = rng.standard_normal((m, k))
        cfg = make_config(tol=1e-13, max_iters=20000)
        B, trace = sv.lasso_cd_gram(G, R, lam, cfg, penalty_weights=pw,
                                    beta0=beta0, mask=mask)
        # a batch solves each row exactly as it would be solved alone
        for i in range(m):
            b, t = sv.lasso_cd_gram(G, R[i], lam, cfg, penalty_weights=pw[i],
                                    beta0=beta0[i], mask=mask[i])
            np.testing.assert_array_equal(B[i], b)
            assert t.notes["sweeps"] == [trace.notes["sweeps"][i]]
        assert trace.converged and trace.iters_used == sum(trace.notes["sweeps"])
        # masked coordinates stay exactly zero from a nonzero warm start
        assert np.all(B[~mask] == 0.0)
        # (c G, c R, c lam) has the same minimiser
        c = 10.0 ** u
        Bc, _ = sv.lasso_cd_gram(c * G, c * R, c * lam, cfg, penalty_weights=pw,
                                 beta0=beta0, mask=mask)
        assert np.abs(Bc - B).max() <= 1e-9 * max(1.0, np.abs(B).max())


def qp_oracle_projection(S0, cset):
    """Projection onto the constraint set by direct NLP over the edge
    vector w (small n only): W(w) for the adjacency sets, L(w) with
    sum(w) = N/2 for the Laplacian set."""
    n = S0.shape[0]
    iu, ju = np.triu_indices(n, 1)

    def unpack(w):
        M = np.zeros((n, n))
        M[iu, ju] = w
        M[ju, iu] = w
        if cset.kind == "laplacian":
            M = np.diag(M.sum(axis=1)) - M
        return M

    def obj(w):
        return np.sum((unpack(w) - S0) ** 2)

    def grad(w):
        R = unpack(w) - S0
        g = R[iu, ju] + R[ju, iu]
        if cset.kind == "laplacian":
            g = np.diag(R)[iu] + np.diag(R)[ju] - g
        return 2.0 * g

    # the scale equality as a'w = b
    if cset.kind == "laplacian":
        a, b = np.ones(iu.size), n / 2.0
    elif cset.scale == "first_node":
        a, b = (iu == 0).astype(float), 1.0
    else:
        a, b = np.full(iu.size, 2.0), float(n)
    res = minimize(obj, a * (b / (a @ a)), jac=grad, bounds=[(0, None)] * iu.size,
                   constraints=[{"type": "eq", "fun": lambda w: a @ w - b,
                                 "jac": lambda w: a}], method="SLSQP",
                   options={"maxiter": 500, "ftol": 1e-12})
    assert res.success
    return unpack(res.x)


SHIFT_SETS = {"first_node": sv.ShiftConstraintSet(),
              "total": sv.ShiftConstraintSet(scale="total"),
              "laplacian": sv.ShiftConstraintSet(kind="laplacian")}


def feasible_point(cset, n, rng):
    """A random member of the set with about half its edges present."""
    W = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
    W[0, 1] = 1.0  # keeps the first vertex's degree positive
    W = W + W.T
    if cset.kind == "adjacency" and cset.scale == "first_node":
        return W / W[:, 0].sum()
    W = W * (n / W.sum())
    return W if cset.kind == "adjacency" else np.diag(W.sum(axis=1)) - W


class TestShiftProjection:
    def test_idempotent_on_feasible_point(self):
        cset = sv.ShiftConstraintSet()
        S0 = np.zeros((3, 3))
        S0[0, 1] = S0[1, 0] = 0.6
        S0[0, 2] = S0[2, 0] = 0.4
        out = cset.project(S0)
        np.testing.assert_allclose(out, S0, atol=1e-10)

    def test_negative_identity_lands_in_set(self):
        cset = sv.ShiftConstraintSet()
        out = cset.project(-np.eye(4))
        assert np.abs(np.diag(out)).max() <= 1e-8
        assert out.min() >= -1e-8
        assert out[:, 0].sum() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("name", list(SHIFT_SETS))
    def test_matches_qp_oracle(self, name, n):
        rng = np.random.default_rng(9)
        cset = SHIFT_SETS[name]
        for _ in range(5):
            S0 = rng.standard_normal((n, n))
            ours = cset.project(S0)
            oracle = qp_oracle_projection(S0, cset)
            assert np.abs(ours - oracle).max() <= 1e-6
            # never farther from S0 than the oracle's point
            assert np.linalg.norm(ours - S0) <= np.linalg.norm(oracle - S0) + 1e-12

    def test_capped_laplacian_projection_warns_once(self, monkeypatch):
        # the engine is the one place that reports a capped solve
        config = sv.SolverConfig
        monkeypatch.setattr(sv, "SolverConfig",
                            lambda tol: config(max_iters=1, tol=tol))
        M = np.random.default_rng(11).standard_normal((6, 6))
        with pytest.warns(UserWarning, match="1-step cap") as record:
            sv.ShiftConstraintSet(kind="laplacian").project(M)
        assert len(record) == 1

    def test_laplacian_set_constraints(self):
        rng = np.random.default_rng(11)
        cset = sv.ShiftConstraintSet(kind="laplacian")
        for _ in range(5):
            out = cset.project(rng.standard_normal((5, 5)))
            assert np.abs(out - out.T).max() <= 1e-8
            off = out - np.diag(np.diag(out))
            assert off.max() <= 1e-8
            assert np.abs(out.sum(axis=1)).max() <= 1e-8
            assert np.trace(out) == pytest.approx(5.0, abs=1e-8)

    @pytest.mark.parametrize("name", list(SHIFT_SETS))
    def test_fewer_than_two_vertices_infeasible(self, name):
        for n in (0, 1):
            with pytest.raises(Infeasible):
                SHIFT_SETS[name].project(np.ones((n, n)))

    @pytest.mark.parametrize("name", list(SHIFT_SETS))
    def test_non_square_input_rejected(self, name):
        with pytest.raises(BadInput):
            SHIFT_SETS[name].project(np.ones((3, 4)))

    @given(hst.sampled_from(list(SHIFT_SETS)), hst.integers(2, 9),
           hst.floats(-3.0, 3.0), hst.integers(0, 2 ** 32 - 1))
    def test_variational_inequality(self, name, n, u, seed):
        # P(M) is the projection iff <M - P(M), Y - P(M)> <= 0 for every
        # member Y of the (convex) set
        rng = np.random.default_rng(seed)
        cset = SHIFT_SETS[name]
        M = 10.0 ** u * rng.standard_normal((n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a capped engine solve fails
            P = cset.project(M)
            assert cset.violation(P) <= 1e-9 * max(1.0, np.abs(M).max())
            for _ in range(3):
                Y = feasible_point(cset, n, rng)
                scale = max(1.0, np.linalg.norm(M)) * max(1.0, np.linalg.norm(Y - P))
                assert np.sum((M - P) * (Y - P)) <= 1e-8 * scale
                np.testing.assert_allclose(cset.project(Y), Y, rtol=0,
                                           atol=1e-9 * max(1.0, np.abs(Y).max()))


def _reference_project(cset, M):
    """The adjacency projection as written before the cached edge index:
    symmetrize, gather by 2-D indexing, mask the tied entries, scatter."""
    M = np.asarray(M, float)
    n = M.shape[0]
    S = 0.5 * (M + M.T)
    iu, ju = np.triu_indices(n, 1)
    out = np.zeros_like(S)
    vals = S[iu, ju]
    if cset.scale == "first_node":
        tied = iu == 0
        w = np.empty_like(vals)
        w[~tied] = np.maximum(vals[~tied], 0.0)
        w[tied] = sv.project_simplex(vals[tied], 1.0)
    else:
        w = sv.project_simplex(vals, float(n) / 2.0)
    out[iu, ju] = w
    out[ju, iu] = w
    return out


def _reference_coupling(coupling, M):
    """SpectralCoupling.project as written before it worked in place."""
    V = coupling.V
    Mt = V.T @ (0.5 * (M + M.T)) @ V
    lam = np.diag(Mt).copy()
    off = Mt - np.diag(lam)
    dist = float(np.linalg.norm(off))
    shrink = 0.0 if coupling.eps <= 0 or dist == 0 else min(1.0, coupling.eps / dist)
    T = V @ (np.diag(lam) + shrink * off) @ V.T
    return 0.5 * (T + T.T)


def _off_norm(V, M):
    Mt = V.T @ (0.5 * (M + M.T)) @ V
    return float(np.linalg.norm(Mt - np.diag(np.diag(Mt))))


def sampled_basis(n, seed, p=2000):
    """Eigenbasis of the sample covariance of diffusion signals."""
    G = sim.gen_er_graph(n, 0.3, rng=seed, require_connected=True)
    X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], p, rng=seed).data
    return gc.eigendecompose(np.cov(X)).vecs


class TestCachedIndexParity:
    """The projections on the cached edge index give the same numbers
    as the reference formulas above."""

    @given(hst.integers(1, 80), hst.floats(-3.0, 3.0), hst.integers(0, 2 ** 32 - 1))
    def test_vertex_sums_equal_bincount_bitwise(self, n, u, seed):
        iu, ju = gc.edge_index(n)
        a = 10.0 ** u * np.random.default_rng(seed).standard_normal(iu.size)
        assert not iu.flags.writeable
        ref = np.bincount(iu, a, n) + np.bincount(ju, a, n)
        assert np.array_equal(sv._vertex_sums(n, iu, ju, a), ref)

    @given(hst.sampled_from(["first_node", "total"]), hst.integers(2, 60),
           hst.floats(-3.0, 3.0), hst.booleans(), hst.integers(0, 2 ** 32 - 1))
    def test_adjacency_projection_matches_reference(self, scale, n, u, transposed,
                                                    seed):
        cset = sv.ShiftConstraintSet(scale=scale)
        M = 10.0 ** u * np.random.default_rng(seed).standard_normal((n, n))
        if transposed:  # a non-contiguous input
            M = M.T
        before = M.copy()
        assert np.array_equal(cset.project(M), _reference_project(cset, M))
        assert np.array_equal(M, before)

    @given(hst.integers(2, 60), hst.floats(-3.0, 3.0), hst.floats(-13.0, 1.0),
           hst.integers(0, 2 ** 32 - 1))
    def test_coupling_matches_reference(self, n, u, v, seed):
        rng = np.random.default_rng(seed)
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = 10.0 ** u * rng.standard_normal((n, n))
        before = M.copy()
        for eps in (0.0, 10.0 ** v * _off_norm(V, M)):
            coupling = sv.SpectralCoupling(V, eps)
            assert np.array_equal(coupling.project(M), _reference_coupling(coupling, M))
        assert np.array_equal(M, before)

    @pytest.mark.parametrize("case", ["zero", "tiny", "ball", "diagonal"])
    def test_coupling_cases(self, case):
        rng = np.random.default_rng(31)
        n = 8
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = rng.standard_normal((n, n))
        dist = _off_norm(V, M)
        eps = {"zero": 0.0, "tiny": 1e-12 * dist, "ball": 2.0 * dist,
               "diagonal": 0.5}[case]
        if case == "diagonal":  # exact arithmetic: dist is exactly 0
            V = np.eye(n)[rng.permutation(n)]
            M = np.diag(rng.standard_normal(n))
            assert _off_norm(V, M) == 0.0
        coupling = sv.SpectralCoupling(V, eps)
        out = coupling.project(M)
        assert np.array_equal(out, _reference_coupling(coupling, M))
        if case == "ball":  # already inside the ball: sym(M) comes back
            np.testing.assert_allclose(out, 0.5 * (M + M.T), rtol=0, atol=1e-12)
        elif case == "diagonal":
            assert np.array_equal(out, M)
        else:  # the off-diagonal residual shrinks onto the eps-ball
            assert _off_norm(V, out) <= max(eps, 1e-12 * np.abs(M).max())

    def test_l1_tilt_cached_and_read_only(self):
        for cset, diag_value, off_value in ((SHIFT_SETS["first_node"], 0.0, 1.0),
                                            (SHIFT_SETS["laplacian"], 1.0, -1.0)):
            G = cset.l1_tilt(5)
            expected = np.full((5, 5), off_value)
            np.fill_diagonal(expected, diag_value)
            assert np.array_equal(G, expected)
            assert G is cset.l1_tilt(5)
            with pytest.raises(ValueError):
                G[0, 1] = 2.0

    @pytest.mark.parametrize("scale", ["first_node", "total"])
    def test_admm_path_matches_reference(self, scale, monkeypatch):
        V = sampled_basis(12, 5)
        cset = sv.ShiftConstraintSet(scale=scale)

        def solve():
            eps = 2.0 * sv.spectral_gap(V, cset)[0]
            return eps, sv.admm_l1_spectral(V, eps, cset)

        eps, (S, _, trace) = solve()
        monkeypatch.setattr(sv.ShiftConstraintSet, "project", _reference_project)
        monkeypatch.setattr(sv.SpectralCoupling, "project", _reference_coupling)
        eps_ref, (S_ref, _, trace_ref) = solve()
        assert eps > 0 and eps == eps_ref
        assert trace.converged
        assert np.array_equal(S, S_ref)
        assert trace.iters_used == trace_ref.iters_used


def alternating_gap(V, cset, tol, max_iters):
    """The gap by plain alternating projections: the distance sequence
    falls monotonically; stops once it falls by at most tol relative."""
    coupling = sv.SpectralCoupling(V, 0.0)
    S = cset.project(np.ones((V.shape[0], V.shape[0])))
    prev = np.inf
    for _ in range(max_iters):
        T = coupling.project(S)
        S = cset.project(T)
        gap = float(np.linalg.norm(S - T))
        if prev - gap <= tol * max(gap, 1e-12):
            return gap
        prev = gap
    raise AssertionError("reference gap did not converge")


class TestSpectralGap:
    def test_warns_when_capped(self, monkeypatch):
        V = sampled_basis(12, 5)
        cset = sv.ShiftConstraintSet()
        with monkeypatch.context() as m:
            m.setattr(sv, "SPECTRAL_GAP_MAX_ITERS", 2)
            with pytest.warns(UserWarning, match="cap"):
                capped, _, capped_trace = sv.spectral_gap(V, cset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap, _, trace = sv.spectral_gap(V, cset)
        assert type(capped) is float and type(gap) is float
        # the smallest distance seen can only fall with more iterations
        assert capped >= gap > 0
        assert not capped_trace.converged and capped_trace.iters_used == 2
        assert trace.converged and 2 < trace.iters_used < sv.SPECTRAL_GAP_MAX_ITERS
        assert len(trace.objective) == trace.iters_used and min(trace.objective) == gap

    @pytest.mark.parametrize("scale", ["first_node", "total"])
    def test_returns_the_set_member_at_the_gap(self, scale):
        V = sampled_basis(12, 5)
        cset = sv.ShiftConstraintSet(scale=scale)
        gap, S, _ = sv.spectral_gap(V, cset)
        assert cset.violation(S) <= 1e-12
        # the span point T of S's pair is no closer to S than its projection
        assert ball_distance(V, S) <= gap * (1 + 1e-12)

    @given(hst.sampled_from(["first_node", "total"]), hst.integers(4, 12),
           hst.floats(-3.0, 3.0), hst.integers(0, 2 ** 32 - 1))
    def test_upper_bound_close_to_tight_reference(self, name, n, u, seed):
        cset = SHIFT_SETS[name]
        G = sim.gen_er_graph(n, 0.4, rng=seed, require_connected=True)
        X = 10.0 ** u * sim.gen_diffusion(G, [1.0, 0.5, 0.2], 200, rng=seed).data
        V = gc.eigendecompose(np.cov(X)).vecs
        gap = sv.spectral_gap(V, cset)[0]
        ref = alternating_gap(V, cset, 1e-13, 200000)
        # a feasible-pair distance never undercuts the gap, which the
        # tight reference overestimates only by its last steps
        assert ref * (1.0 - 1e-9) <= gap <= ref * (1.0 + 1e-3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_projection_calls_on_diffusion_signals(self, seed, monkeypatch):
        G = sim.gen_er_graph(30, 0.3, rng=seed, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=seed + 100).data
        V = gc.eigendecompose(np.cov(X)).vecs
        calls = []
        for cls in (sv.ShiftConstraintSet, sv.SpectralCoupling):
            def counted(self, M, _project=cls.project):
                calls.append(1)
                return _project(self, M)
            monkeypatch.setattr(cls, "project", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sv.spectral_gap(V, sv.ShiftConstraintSet())
        assert len(calls) <= 400


def dense_lp_oracle(V, cset, objective):
    """The eps = 0 spectral-template LP in one HiGHS call over the entries
    S_ij, i <= j, with every row present: the set's rows, (U'SU)_ab = 0
    for each a < b with a among the K given columns (U = [V Vc]), and
    the l1 objective <G, S> or a sup-norm epigraph. Returns the linprog
    result and the assembled S (None when not solved)."""
    n, k = V.shape
    ti, tj = np.triu_indices(n)

    def lin(M):  # coefficients of <M, S> over the entries
        return (M + M.T - np.diag(np.diag(M)))[ti, tj]

    U = np.hstack([V, np.linalg.qr(V, mode="complete")[0][:, k:]])
    G = cset.l1_tilt(n)
    off = ti != tj
    a_eq = [lin(np.outer(U[:, a], U[:, b]))
            for a in range(k) for b in range(a + 1, n)]
    if cset.kind == "adjacency":
        a_eq += [lin(np.diag(np.eye(n)[i])) for i in range(n)]
    else:
        a_eq += [lin(np.outer(np.eye(n)[i], np.ones(n))) for i in range(n)]
    A, b = cset.scale_equality(n)
    a_eq.append(lin(A))
    b_eq = np.zeros(len(a_eq))
    b_eq[-1] = b
    signs = -G[ti, tj][off, None] * np.eye(ti.size)[off]
    if objective == "l1":
        c, a_ub, bounds = lin(G), signs, (None, None)
    else:
        absolute = G[ti, tj][:, None] * np.eye(ti.size)
        a_ub = np.block([[signs, np.zeros((signs.shape[0], 1))],
                         [absolute, -np.ones((ti.size, 1))]])
        a_eq = [np.append(row, 0.0) for row in a_eq]
        c = np.append(np.zeros(ti.size), 1.0)
        bounds = [(None, None)] * ti.size + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=np.vstack(a_eq),
                  b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        return res, None
    S = np.zeros((n, n))
    S[ti, tj] = res.x[:ti.size]
    S[tj, ti] = res.x[:ti.size]
    return res, S


class TestLogdetProxGradient:
    # min -log x + 2x over x > 0: x = 1/2
    scalar = (lambda x: x.reshape(1, 1), lambda C: C.ravel(), np.array([2.0]))

    def test_scalar_likelihood(self):
        x, trace = sv.logdet_prox_gradient(*self.scalar, lambda v, t: v, lambda x: 0.0,
                                           np.array([3.0]), 9.0, make_config())
        assert trace.converged and trace.notes["kkt_residual"] <= 1e-7
        assert x[0] == pytest.approx(0.5, rel=1e-7)

    def test_capped_and_stalled_solves_warn(self):
        with pytest.warns(UserWarning, match="3-iteration cap"):
            _, trace = sv.logdet_prox_gradient(*self.scalar, lambda v, t: v, lambda x: 0.0,
                                               np.array([3.0]), 9.0,
                                               make_config(max_iters=3))
        assert not trace.converged and trace.iters_used == 3
        # from the optimum a "prox" that adds 1 only moves uphill: no step
        # passes the Armijo test
        with pytest.warns(UserWarning, match="60 step halvings"):
            _, trace = sv.logdet_prox_gradient(*self.scalar, lambda v, t: v + 1.0,
                                               lambda x: 0.0,
                                               np.array([0.5]), 1.0, make_config())
        assert not trace.converged and trace.iters_used == 0


class TestAdmmKernel:
    def test_balancing_solves_a_badly_scaled_pair(self):
        # min c/2 ||x - a||^2 s.t. x = z >= 0: with rho held at 1 the
        # scaled dual needs about c iterations to reach its optimum
        c, n = 1e6, 6
        a = np.random.default_rng(16).standard_normal((n, n))
        config = sv.SolverConfig()
        x, z, trace = sv.admm(lambda m, rho: (c * a + rho * m) / (c + rho),
                              lambda m, rho: np.maximum(m, 0.0),
                              np.zeros((n, n)), config,
                              lambda x: 0.5 * c * float(((x - a) ** 2).sum()))
        bound = config.tol * n * max(1.0, np.linalg.norm(x))
        assert trace.converged
        assert trace.primal_residuals[-1] <= bound
        assert trace.dual_residuals[-1] <= bound
        assert np.abs(z - np.maximum(a, 0.0)).max() <= 1e-5



class TestAdmmSpectral:
    def test_two_cycle_recovery(self):
        basis = gc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        S, lam, trace = sv.admm_l1_spectral(basis.vecs, 0.0,
                                            sv.ShiftConstraintSet())
        np.testing.assert_allclose(S, [[0, 1], [1, 0]], atol=1e-8)
        assert trace.converged

    def test_identity_basis_infeasible(self):
        with pytest.raises(Infeasible):
            sv.admm_l1_spectral(np.eye(3), 0.0, sv.ShiftConstraintSet())

    def test_matches_lp_oracle_exact_bases(self):
        rng = np.random.default_rng(12)
        hits = 0
        for seed in range(8):
            W = np.zeros((4, 4))
            iu, ju = np.triu_indices(4, 1)
            w = np.where(rng.random(6) < 0.6, rng.uniform(0.5, 1.5, 6), 0.0)
            if w[iu == 0].sum() == 0:
                continue
            W[iu, ju] = w
            W[ju, iu] = w
            H = np.eye(4) + 0.5 * W + 0.2 * W @ W
            basis = gc.eigendecompose(H @ H)
            _, oracle = dense_lp_oracle(basis.vecs, sv.ShiftConstraintSet(), "l1")
            if oracle is None:
                continue
            S, _, trace = sv.admm_l1_spectral(basis.vecs, 0.0,
                                              sv.ShiftConstraintSet())
            assert np.abs(S).sum() <= np.abs(oracle).sum() + 1e-6
            assert np.abs(S - oracle).max() <= 1e-5
            hits += 1
        assert hits >= 4

    def test_huge_eps_reaches_sparsest_member(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cset = sv.ShiftConstraintSet()
        S, _, trace = sv.admm_l1_spectral(q, 1e6, cset)
        # sparsest member of the first-node set has total l1 mass 2
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("n,p", [(12, 0.25), (20, 0.2), (30, 0.12)])
    def test_residuals_reach_tolerance_midsize_default_config(self, n, p):
        rng = np.random.default_rng(14)
        iu, ju = np.triu_indices(n, 1)
        w = np.where(rng.random(iu.size) < p, rng.uniform(0.5, 1.5, iu.size), 0.0)
        if w[iu == 0].sum() == 0:
            w[0] = 1.0  # keep the scale normalization well posed
        W = np.zeros((n, n))
        W[iu, ju] = w
        W[ju, iu] = w
        H = np.eye(n) + 0.5 * W
        basis = gc.eigendecompose(H @ H)
        S, _, trace = sv.admm_l1_spectral(basis.vecs, 0.0,
                                          sv.ShiftConstraintSet())
        assert trace.primal_residuals[-1] <= 1e-6
        assert trace.dual_residuals[-1] <= 1e-6

    def test_deterministic(self):
        basis = gc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out1 = sv.admm_l1_spectral(basis.vecs, 0.0, sv.ShiftConstraintSet())
        out2 = sv.admm_l1_spectral(basis.vecs, 0.0, sv.ShiftConstraintSet())
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_frobenius_objective_feasible(self):
        rng = np.random.default_rng(15)
        W = np.zeros((5, 5))
        W[0, 1] = W[1, 0] = 1.0
        W[1, 2] = W[2, 1] = 1.0
        basis = gc.eigendecompose(W)
        S, _, trace = sv.admm_l1_spectral(basis.vecs, 0.0,
                                          sv.ShiftConstraintSet(),
                                          objective="frobenius")
        cset = sv.ShiftConstraintSet()
        assert cset.violation(S) <= 1e-6


def sampled_basis(n, seed, p=2000):
    """Eigenbasis of the sample covariance of P diffused signals."""
    G = sim.gen_er_graph(n, 0.4, rng=seed, require_connected=True)
    X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], p, rng=seed + 50)
    return sid.estimate_eigenbasis(X)[0].vecs


def edge_problem(V, cset):
    """(A, a, b) of the eps > 0 problem over the edge vector w: the ball
    reads w'Aw <= eps^2 and the scale a'w = b."""
    n = V.shape[0]
    iu, ju = gc.edge_index(n)
    B = 2.0 * V[iu] * V[ju]
    Aeq, b = cset.scale_equality(n)
    return 2.0 * np.eye(iu.size) - B @ B.T, Aeq[iu, ju] + Aeq[ju, iu], b


def slsqp_oracle(V, eps, cset):
    """min ||S||_1 = 2 sum(w) over the edge vector by SLSQP, from the
    uniform point of the scale equality."""
    A, a, b = edge_problem(V, cset)
    res = minimize(lambda w: 2.0 * w.sum(), np.full(a.size, b / a.sum()),
                   jac=lambda w: np.full(w.size, 2.0), method="SLSQP",
                   bounds=[(0.0, None)] * a.size,
                   constraints=[{"type": "eq", "fun": lambda w: a @ w - b,
                                 "jac": lambda w: a},
                                {"type": "ineq", "fun": lambda w: eps * eps - w @ A @ w,
                                 "jac": lambda w: -2.0 * A @ w}],
                   options={"ftol": 1e-14, "maxiter": 2000})
    return gc.weights_from_edge_vector(res.x, V.shape[0])


def ball_distance(V, S):
    """||offdiag(V'SV)||_F: the distance from S to the span."""
    M = V.T @ S @ V
    np.fill_diagonal(M, 0.0)
    return float(np.linalg.norm(M))


@pytest.fixture
def gap_calls(monkeypatch):
    """A list that grows by one at each spectral_gap call."""
    calls = []
    gap = sv.spectral_gap

    def counted(*args):
        calls.append(1)
        return gap(*args)

    monkeypatch.setattr(sv, "spectral_gap", counted)
    return calls


def plain_admm(monkeypatch, *args):
    """admm_l1_spectral with the active-set walk given no solves."""
    with monkeypatch.context() as m:
        m.setattr(sv, "_WALK_ROUNDS", 0)
        return sv.admm_l1_spectral(*args)


class TestSupportFinisher:
    """The closed-form solve of :class:`sv._EdgeKKT` on a support and its
    certificate, reached through the active-set walk, and the eps > 0 l1
    cases that keep the plain ADMM."""

    @pytest.mark.parametrize("n,seed", [(6, 0), (6, 3), (8, 1), (8, 2), (10, 2), (10, 3)])
    def test_matches_slsqp_first_node(self, n, seed):
        V = sampled_basis(n, seed)
        cset = sv.ShiftConstraintSet()
        eps = 3.0 * sv.spectral_gap(V, cset)[0]
        S, lam, trace = sv.admm_l1_spectral(V, eps, cset)
        assert trace.converged and trace.iters_used == 0
        assert 1 <= trace.notes["walk_rounds"] <= sv._WALK_ROUNDS
        assert trace.notes["kkt_residual"] <= sv.SolverConfig().tol
        assert trace.notes["eps"] == eps
        oracle = slsqp_oracle(V, eps, cset)
        assert ball_distance(V, oracle) <= eps * (1 + 1e-8)
        # the certified point is optimal: no feasible point does better
        assert np.abs(S).sum() <= np.abs(oracle).sum() + 1e-9
        assert np.abs(S - oracle).max() <= 1e-6
        np.testing.assert_allclose(lam, np.diag(V.T @ S @ V), atol=1e-12)

    @pytest.mark.parametrize("n,seed", [(6, 1), (8, 3), (10, 1)])
    def test_total_scale_falls_through(self, n, seed, gap_calls):
        # ||S||_1 = 2 sum(w) = N on the whole set: every member is optimal,
        # so no walk is tried and the plain ADMM result stands
        V = sampled_basis(n, seed)
        cset = sv.ShiftConstraintSet(scale="total")
        eps = 2.0 * sv.spectral_gap(V, cset)[0]
        S, _, trace = sv.admm_l1_spectral(V, eps, cset)
        assert len(gap_calls) == 1  # the call above
        assert trace.converged and trace.iters_used > 0
        assert "walk_rounds" not in trace.notes and "kkt_residual" not in trace.notes
        assert np.abs(S).sum() == pytest.approx(np.abs(slsqp_oracle(V, eps, cset)).sum())

    def test_inactive_ball_falls_through(self, gap_calls):
        # the set's point nearest zero is l1-minimal on the set; within
        # eps of the span it is optimal, and no gap is computed
        V = sampled_basis(8, 2)
        cset = sv.ShiftConstraintSet()
        nearest = ball_distance(V, cset.project(np.zeros((8, 8))))
        S, _, trace = sv.admm_l1_spectral(V, nearest * (1 + 1e-3), cset)
        assert not gap_calls and "walk_rounds" not in trace.notes
        assert trace.converged and trace.iters_used == 1
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-12)
        # just inside that distance the ball binds and the walk runs
        S, _, trace = sv.admm_l1_spectral(V, nearest * (1 - 1e-3), cset)
        assert len(gap_calls) == 1 and trace.notes["walk_rounds"] >= 1
        assert trace.converged and cset.violation(S) <= 1e-9
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-9)

    def test_eps_below_gap_falls_through(self, gap_calls):
        V = sampled_basis(8, 1)
        cset = sv.ShiftConstraintSet()
        eps = 0.5 * sv.spectral_gap(V, cset)[0]
        with pytest.warns(UserWarning, match="cap"):
            S, _, trace = sv.admm_l1_spectral(V, eps, cset, sv.SolverConfig(max_iters=1000))
        # spectral_gap's point is farther than eps from the span: no walk
        assert len(gap_calls) == 2 and "walk_rounds" not in trace.notes
        assert not trace.converged and trace.iters_used == 1000

    def test_certificate_checks_bind(self, monkeypatch):
        V = sampled_basis(8, 1)
        cset = sv.ShiftConstraintSet()
        eps = 2.0 * sv.spectral_gap(V, cset)[0]
        S, _, trace = sv.admm_l1_spectral(V, eps, cset)
        assert trace.iters_used == 0
        assert trace.notes["kkt_residual"] > 1e-16  # rounding
        capped = sv.SolverConfig(max_iters=500)  # the plain ADMM needs 589
        with pytest.warns(UserWarning, match="cap"):
            _, _, trace = sv.admm_l1_spectral(V, eps, cset,
                                              sv.SolverConfig(tol=1e-16, max_iters=500))
        assert trace.notes["walk_rounds"] >= 1 and "kkt_residual" not in trace.notes
        # the solution lies on the ball, outside a negative slack, and the
        # ball check alone rejects it once the set check passes anything
        monkeypatch.setattr(sv, "_FINISH_ROUNDING", -1e-6)
        monkeypatch.setattr(sv.ShiftConstraintSet, "violation", lambda self, M: -np.inf)
        with pytest.warns(UserWarning, match="cap"):
            _, _, trace = sv.admm_l1_spectral(V, eps, cset, capped)
        assert trace.notes["walk_rounds"] >= 1 and "kkt_residual" not in trace.notes

    @given(n=hst.integers(5, 10), seed=hst.integers(0, 10_000),
           p=hst.integers(200, 5000), margin=hst.floats(1.1, 4.0))
    def test_certified_points_are_feasible(self, n, seed, p, margin):
        V = sampled_basis(n, seed, p)
        cset = sv.ShiftConstraintSet()
        eps = margin * sv.spectral_gap(V, cset)[0]
        S, _, trace = sv.admm_l1_spectral(V, eps, cset)
        assume(trace.iters_used == 0)
        assert cset.violation(S) <= 1e-9
        assert ball_distance(V, S) <= eps * (1 + 1e-9)
        assert trace.notes["kkt_residual"] <= sv.SolverConfig().tol


def er_sampled_basis(n, seed, p):
    """Eigenbasis of the sample covariance of P diffused signals on an
    ER draw with the benchmark's edge probability."""
    G = sim.gen_er_graph(n, 0.3, rng=seed, require_connected=True)
    X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], p, rng=seed + 50)
    return sid.estimate_eigenbasis(X)[0].vecs


class TestActiveSetWalk:
    """The eps > 0 l1 solve on the first_node set, eps="auto" included:
    the walk from spectral_gap's feasible point, and the plain ADMM when
    the walk fails."""

    @given(n=hst.integers(6, 20), seed=hst.integers(0, 10_000),
           p=hst.integers(200, 5000))
    @settings(max_examples=30)
    def test_walk_certifies_the_cold_solve(self, n, seed, p):
        V = er_sampled_basis(n, seed, p)
        cset = sv.ShiftConstraintSet()
        S, lam, trace = sv.admm_l1_spectral(V, "auto", cset)
        eps = trace.notes["eps"]
        assert eps == 2.0 * sv.spectral_gap(V, cset)[0]
        # a numeric eps equal to auto's walks from the same point
        cold, cold_lam, cold_trace = sv.admm_l1_spectral(V, eps, cset)
        np.testing.assert_array_equal(S, cold)
        np.testing.assert_array_equal(lam, cold_lam)
        assert cold_trace.notes == trace.notes
        assume(trace.iters_used == 0)
        assert trace.converged
        assert 1 <= trace.notes["walk_rounds"] <= sv._WALK_ROUNDS
        assert cset.violation(S) <= 1e-9
        assert ball_distance(V, S) <= eps * (1 + 1e-9)
        assert trace.notes["kkt_residual"] <= sv.SolverConfig().tol

    @pytest.mark.parametrize("n,seed", [(6, 0), (8, 1), (10, 2)])
    def test_walk_matches_slsqp(self, n, seed, gap_calls):
        V = sampled_basis(n, seed)
        cset = sv.ShiftConstraintSet()
        S, _, trace = sv.admm_l1_spectral(V, "auto", cset)
        assert len(gap_calls) == 1 and trace.iters_used == 0
        oracle = slsqp_oracle(V, trace.notes["eps"], cset)
        assert np.abs(S).sum() <= np.abs(oracle).sum() + 1e-9
        assert np.abs(S - oracle).max() <= 1e-6

    def test_ratio_steps_reach_the_certificate(self):
        # a draw of the benchmark's eps="auto" job whose start support
        # (424 pairs) is far from the optimal one (265): the bulk drops
        # fail there, and ratio steps carry the walk (44 solves measured)
        rng = np.random.default_rng([1, 14])
        G = sim.gen_er_graph(30, 0.3, rng=rng, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=rng)
        S, trace, _ = sid.infer_shift_from_signals(X)
        assert trace.iters_used == 0 and trace.notes["walk_rounds"] <= 60
        assert trace.notes["kkt_residual"] <= sv.SolverConfig().tol

    @pytest.fixture
    def problem(self):
        V = sampled_basis(10, 2)
        cset = sv.ShiftConstraintSet()
        S, _, trace = sv.admm_l1_spectral(V, "auto", cset)
        assert trace.iters_used == 0
        return V, cset, trace.notes["eps"], S

    def test_capped_walk_falls_back_to_the_admm(self, problem, monkeypatch):
        V, cset, eps, walked = problem
        plain = plain_admm(monkeypatch, V, eps, cset)
        monkeypatch.setattr(sv, "_WALK_ROUNDS", 1)
        out = sv.admm_l1_spectral(V, eps, cset)
        for got, want in zip(out[:2], plain[:2]):
            np.testing.assert_array_equal(got, want)
        assert out[2].converged and out[2].iters_used == plain[2].iters_used > 0
        assert out[2].notes["walk_rounds"] == 1 and "kkt_residual" not in out[2].notes
        # the ADMM reaches the walk's optimum to its own accuracy (its S
        # lies in the set, within the tolerance of the ball)
        assert np.abs(out[0]).sum() == pytest.approx(np.abs(walked).sum(), rel=1e-5)

    def test_failed_certificate_falls_back_to_the_admm(self, problem, monkeypatch):
        V, cset, eps, _ = problem
        config = sv.SolverConfig(tol=1e-16, max_iters=500)
        with pytest.warns(UserWarning, match="500-iteration cap"):
            out = sv.admm_l1_spectral(V, eps, cset, config)
        with pytest.warns(UserWarning, match="cap"):
            plain = plain_admm(monkeypatch, V, eps, cset, config)
        for got, want in zip(out[:2], plain[:2]):
            np.testing.assert_array_equal(got, want)
        assert out[2].notes["walk_rounds"] >= 1 and not out[2].converged

    @pytest.mark.parametrize("scale", ["first_node", "total"])
    def test_inactive_ball_and_total_scale_keep_the_admm(self, scale, gap_calls):
        V = sampled_basis(8, 2)
        cset = sv.ShiftConstraintSet(scale=scale)
        S, _, trace = sv.admm_l1_spectral(V, 1e6, cset)
        assert not gap_calls and "walk_rounds" not in trace.notes
        assert trace.converged and trace.iters_used >= 1
        # the sparsest member of the first_node set has l1 mass 2; every
        # member of the total set has mass N
        assert np.abs(S).sum() == pytest.approx(
            np.abs(slsqp_oracle(V, 1e6, cset)).sum(), abs=1e-6)
        assert np.abs(S).sum() == pytest.approx(2.0 if scale == "first_node" else 8.0)
        if scale == "total":
            _, _, trace = sv.admm_l1_spectral(V, "auto", cset)
            assert len(gap_calls) == 1 and "walk_rounds" not in trace.notes
            assert trace.converged and trace.iters_used >= 1

    @pytest.mark.parametrize("objective", ["linf", "frobenius"])
    def test_other_objectives_ignore_the_start(self, objective, gap_calls):
        V = sampled_basis(6, 1)
        cset = sv.ShiftConstraintSet()
        eps = 2.0 * sv.spectral_gap(V, cset)[0]
        out = sv.admm_l1_spectral(V, eps, cset, None, objective)
        # no feasible start is computed for them: eps="auto" calls
        # spectral_gap once, for eps alone, and solves as the numeric eps
        assert len(gap_calls) == 1
        auto = sv.admm_l1_spectral(V, "auto", cset, None, objective)
        assert len(gap_calls) == 2
        np.testing.assert_array_equal(out[0], auto[0])
        assert out[2].notes == auto[2].notes and "walk_rounds" not in out[2].notes
        assert out[2].converged and out[2].iters_used > 0


def diffusion_basis(n, seed):
    G = sim.gen_er_graph(n, 0.3, rng=seed, require_connected=True)
    return G, gc.eigendecompose(sim.diffusion_covariance(G, [1.0, 0.5, 0.2]))


class TestSpectralLP:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_recovery_n50_default_config(self, seed):
        G, basis = diffusion_basis(50, seed)
        S, _, trace = sv.admm_l1_spectral(basis.vecs, 0.0,
                                          sv.ShiftConstraintSet())
        assert trace.converged
        assert scale_aligned_error(S, G.data) <= 1e-8

    def test_matches_tight_admm_cross_check(self):
        # independent of the LP formulation: ADMM at a negligible eps
        tight = sv.SolverConfig(max_iters=40000, tol=1e-12)
        cset = sv.ShiftConstraintSet()
        for seed in range(10):
            _, basis = diffusion_basis(10, seed)
            S, _, trace = sv.admm_l1_spectral(basis.vecs, 0.0, cset)
            S_admm, _, trace_admm = sv.admm_l1_spectral(basis.vecs, 1e-12,
                                                        cset, tight)
            assert trace.converged and trace_admm.converged
            assert np.abs(S - S_admm).max() <= 1e-8

    @pytest.mark.parametrize("cset", [
        sv.ShiftConstraintSet(), sv.ShiftConstraintSet(scale="total"),
        sv.ShiftConstraintSet(kind="laplacian")])
    def test_linf_objective_exact(self, cset):
        for seed in range(5):
            G, _ = diffusion_basis(10, 40 + seed)
            shift = G.data if cset.kind == "adjacency" else \
                gc.laplacian_from_weights(G.data)
            basis = gc.eigendecompose(sim.diffusion_covariance(shift, [1.0, 0.5]))
            V = basis.vecs
            S, _, trace = sv.admm_l1_spectral(V, 0.0, cset, objective="linf")
            S_l1, _, _ = sv.admm_l1_spectral(V, 0.0, cset)
            assert trace.converged
            assert cset.violation(S) <= 1e-9
            off = V.T @ S @ V
            assert np.abs(off - np.diag(np.diag(off))).max() <= 1e-9
            assert np.abs(S).max() <= np.abs(S_l1).max() + 1e-9


class TestRowGeneration:
    """The row-generation LP against the dense one-call oracle."""

    @given(hst.sampled_from(list(SHIFT_SETS)), hst.sampled_from(["l1", "linf"]),
           hst.sampled_from(["full", "half", "none", "random"]), hst.integers(4, 12),
           hst.integers(0, 2 ** 32 - 1))
    def test_matches_dense_oracle(self, name, objective, basis, n, seed):
        cset = SHIFT_SETS[name]
        G = sim.gen_er_graph(n, 0.4, rng=seed, require_connected=True)
        shift = G.data if cset.kind == "adjacency" else gc.laplacian_from_weights(G.data)
        V = gc.eigendecompose(sim.diffusion_covariance(shift, [1.0, 0.5, 0.2])).vecs
        if basis == "random":  # almost never fits the set: Infeasible
            V = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
        V = V[:, :{"full": n, "half": n // 2, "none": 0, "random": n}[basis]]
        res, S_ref = dense_lp_oracle(V, cset, objective)
        assert res.status in (0, 2)
        if res.status == 2:
            with pytest.raises(Infeasible):
                sv.admm_l1_spectral(V, 0.0, cset, objective=objective)
            return
        S, _, trace = sv.admm_l1_spectral(V, 0.0, cset, objective=objective)
        assert trace.converged
        assert cset.violation(S) <= 1e-9
        assert abs(trace.objective[-1] - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
        pairs = n * (n - 1) // 2
        full = pairs if objective == "l1" else 2 * pairs + n
        assert trace.notes["lp_rows_full"] == full
        # the l1 solves also hold the implied row <G, S> >= 0
        assert trace.notes["lp_rows"] <= full + 1
        if cset.kind == "adjacency" and V.shape[1] == n and \
                np.linalg.matrix_rank(V * V) == n - 1:
            # the zero diagonal leaves one ray of eigenvalues: the set
            # meets the span in one point, the optimum is unique
            np.testing.assert_allclose(S, S_ref, rtol=0,
                                       atol=1e-9 * np.abs(S_ref).max())

    def test_unbounded_first_restriction(self, monkeypatch):
        # with no basis (K = 0) S is any member of the set; kept to the
        # first vertex's sign rows, min sum(S) is unbounded, since any
        # other entry can fall without limit
        n = 6
        iu, ju = np.triu_indices(n, 1)
        first = (iu == 0).astype(float)
        res = linprog(np.full(iu.size, 2.0), A_ub=-np.eye(iu.size)[iu == 0],
                      b_ub=np.zeros(n - 1), A_eq=first[None], b_eq=[1.0],
                      bounds=(None, None), method="highs")
        assert res.status == 3
        solves = []

        def recorded(*args, **kwargs):
            out = linprog(*args, **kwargs)
            solves.append((kwargs["A_ub"].shape[0], out.nit))
            return out

        monkeypatch.setattr("scipy.optimize.linprog", recorded)
        S, _, trace = sv.admm_l1_spectral(np.zeros((n, 0)), 0.0,
                                          sv.ShiftConstraintSet())
        assert trace.converged and trace.notes["lp_rounds"] == len(solves) > 1
        assert trace.iters_used == sum(nit for _, nit in solves)
        assert trace.notes["lp_rows"] == solves[-1][0]
        # the sparsest member: one edge of weight one at the first vertex
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-9)
        assert sv.ShiftConstraintSet().violation(S) <= 1e-12

    def test_rows_below_the_full_lp_at_n60(self):
        G = sim.gen_er_graph(60, 0.3, rng=1, require_connected=True)
        cov = sim.diffusion_covariance(G, [1.0, 0.5, 0.2])
        S, trace, _ = sid.infer_shift_from_signals(cov)
        assert trace.notes["lp_rows"] < 60 * 59 // 2
        assert scale_aligned_error(S, G.data) <= 1e-8


class TestPrimalDualGraph:
    def scalar_root(self, z, alpha, beta):
        if beta == 0:
            return alpha / z
        return (-z + np.sqrt(z * z + 4 * alpha * beta)) / (2 * beta)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.0, 0.0),
                                            (2.0, 0.5), (0.3, 2.0)])
    def test_two_node_scalar_oracle(self, alpha, beta):
        Z = np.array([[0.0, 1.0], [1.0, 0.0]])
        W, trace = sv.primal_dual_graph(Z, sv.DegreeTerm("log_barrier", alpha), beta)
        assert W[0, 1] == pytest.approx(self.scalar_root(1.0, alpha, beta),
                                        abs=1e-6)

    def test_zero_distances_finite_optimum(self):
        Z = np.zeros((2, 2))
        W, _ = sv.primal_dual_graph(Z, sv.DegreeTerm("log_barrier", 1.0),
                                    1.0)
        assert W[0, 1] == pytest.approx(1.0, abs=1e-5)  # w = sqrt(alpha/beta)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((7, 20))
        D = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2) ** 2
        np.fill_diagonal(D, 0.0)
        W, trace = sv.primal_dual_graph(D / D.max(),
                                        sv.DegreeTerm("log_barrier", 1.0),
                                        0.5)
        assert trace.notes["kkt_residual"] <= 1e-6 * trace.notes["kkt_scale"]

    def test_simplex_constraint_holds(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((6, 15))
        D = (X[:, None, :] - X[None, :, :])
        Z = np.sum(D * D, axis=2)
        W, _ = sv.primal_dual_graph(Z, sv.DegreeTerm("quadratic", 1.0),
                                    1.0, scale_sum=3.0)
        assert W.sum() / 2.0 == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("beta", [np.inf, np.nan, -1.0])
    def test_beta_outside_range_rejected(self, beta):
        Z = _sq_distances(np.random.default_rng(18).standard_normal((8, 5)))
        with pytest.raises(BadParameter):
            sv.primal_dual_graph(Z, sv.DegreeTerm("log_barrier"), beta)

    @pytest.mark.parametrize("kind,weight", [
        ("log_barrier", np.nan), ("log_barrier", np.inf), ("log_barrier", 0.0),
        ("cubic", 1.0), ("quadratic", -1.0), ("quadratic", np.nan),
        ("quadratic", 0.0)])
    def test_degree_term_outside_range_rejected(self, kind, weight):
        with pytest.raises(BadParameter):
            sv.DegreeTerm(kind, weight)


def _degree_map(n):
    """Dense N x N(N-1)/2 map B from upper-triangular weights to degrees."""
    iu, ju = np.triu_indices(n, 1)
    B = np.zeros((n, iu.size))
    B[iu, np.arange(iu.size)] = 1.0
    B[ju, np.arange(iu.size)] = 1.0
    return B


def _sq_distances(X):
    D = X[:, None, :] - X[None, :, :]
    return np.sum(D * D, axis=2)


def _engine_reference(Z, kind, weight, beta, scale_sum=None):
    """Independent L-BFGS-B solve of min 2 z'w + g(Bw) + beta ||w||^2
    over w >= 0 with a dense B; g is -weight * sum log (kind "log") or
    weight / 2 ||.||^2 (kind "quad"). Below degree 1e-4 the logarithm is
    continued by its second-order Taylor polynomial, so the objective
    is finite everywhere; the solution must lie above that degree. The
    sum constraint is met by a bracketed root search on its multiplier,
    then exactly by rescaling, so the returned objective is that of a
    feasible point."""
    n = Z.shape[0]
    iu, ju = np.triu_indices(n, 1)
    z, B = Z[iu, ju], _degree_map(n)
    low = 1e-4

    def objective(w, mu=0.0):
        d = B @ w
        if kind == "log":
            e = np.maximum(d, low)
            t = np.minimum(d - low, 0.0) / low  # Taylor part below `low`
            g_val = -weight * (np.log(e) + t - 0.5 * t * t).sum()
            g_grad = -weight * (1.0 / e - t / low)
        else:
            g_val, g_grad = 0.5 * weight * d @ d, weight * d
        f = 2 * z @ w + g_val + beta * w @ w + mu * w.sum()
        return f, 2 * z + B.T @ g_grad + 2 * beta * w + mu

    def solve(mu=0.0):
        w0 = np.full(iu.size, 1.0 / max(z.mean(), 1e-12))
        res = minimize(objective, w0, args=(mu,), jac=True, method="L-BFGS-B",
                       bounds=[(0.0, None)] * iu.size,
                       options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12})
        return res.x

    if scale_sum is None:
        w = solve()
        assert kind != "log" or (B @ w).min() > low
        return objective(w)[0]
    # sum(w(mu)) falls from above scale_sum at mu_lo to 0 at mu = 0
    mu_lo = -1.0
    while solve(mu_lo).sum() < scale_sum:
        mu_lo *= 2.0
    mu = brentq(lambda m: solve(m).sum() - scale_sum, mu_lo, 0.0, xtol=1e-14)
    w = solve(mu)
    return objective(w * (scale_sum / w.sum()))[0]


def _engine_objective(Z, kind, weight, beta, W):
    iu, ju = np.triu_indices(Z.shape[0], 1)
    w, d = W[iu, ju], W.sum(axis=1)
    g_val = -weight * np.log(d).sum() if kind == "log" else 0.5 * weight * d @ d
    return 2 * Z[iu, ju] @ w + g_val + beta * w @ w


class TestEdgeWeightEngine:
    @pytest.mark.parametrize("kind,weight,beta,scale", [
        ("log", 1.0, 0.5, False),   # log barrier, beta > 0
        ("log", 1.5, 0.0, False),   # log barrier, beta = 0: proximal loop
        ("quad", 0.7, 0.4, True),   # quadratic degree term plus the sum
    ])
    def test_matches_lbfgsb_reference(self, kind, weight, beta, scale):
        rng = np.random.default_rng(41)
        for _ in range(4):
            n = int(rng.integers(3, 8))
            Z = _sq_distances(rng.standard_normal((n, 6)))
            Z /= Z[np.triu_indices(n, 1)].mean()
            g_spec = sv.DegreeTerm("log_barrier" if kind == "log" else "quadratic",
                                   weight)
            s = n / 2.0 if scale else None
            W, trace = sv.primal_dual_graph(Z, g_spec, beta, scale_sum=s)
            assert trace.converged
            ref = _engine_reference(Z, kind, weight, beta, s)
            mine = _engine_objective(Z, kind, weight, beta, W)
            assert mine <= ref + 1e-9 * max(1.0, abs(ref))

    @given(n=hst.integers(2, 9), p=hst.integers(1, 10),
           case=hst.sampled_from(["log", "log_beta0", "quad"]),
           beta=hst.floats(0.05, 5.0), log_c=hst.floats(-3.0, 3.0),
           seed=hst.integers(0, 2 ** 32 - 1))
    # degrees below 1, where a stop rule floored at 1 is absolute and ends early
    @example(n=2, p=3, case="log", beta=3.0, log_c=1.0, seed=2)
    def test_properties_and_scale_equivariance(self, n, p, case, beta, log_c, seed):
        # (Z, beta) -> (c Z, c^2 beta) gives W / c: substitute w = w' / c
        # (the quadratic degree weight scales like beta, the sum as 1 / c)
        Z = _sq_distances(np.random.default_rng(seed).standard_normal((n, p)))
        c = 10.0 ** log_c
        beta = 0.0 if case == "log_beta0" else beta
        s = n / 2.0 if case == "quad" else None

        def solve(scale):
            g_spec = sv.DegreeTerm("quadratic", scale ** 2) if case == "quad" \
                else sv.DegreeTerm("log_barrier", 1.0)
            return sv.primal_dual_graph(scale * Z, g_spec, scale ** 2 * beta,
                                        scale_sum=None if s is None else s / scale)

        W, trace = solve(1.0)
        assert trace.converged
        assert np.array_equal(W, W.T)
        assert W.min() >= 0.0 and np.all(np.diag(W) == 0.0)
        if s is not None:
            assert W.sum() / 2.0 == pytest.approx(s, rel=1e-12)
        Wc, trace_c = solve(c)
        assert trace_c.converged
        assert np.abs(c * Wc - W).max() <= 1e-5 * W.max()

    def test_converges_on_smooth_signals_n100_default_config(self):
        rng = np.random.default_rng(3)
        G = sim.gen_er_graph(100, 0.05, rng=rng, require_connected=True)
        X = sim.gen_smooth(gc.laplacian_from_weights(G.weights()), 1000, 0.01, rng)
        Z = _sq_distances(X.data)
        Z /= Z[np.triu_indices(100, 1)].mean()
        for beta in (0.5, 1e-6, 0.0):
            _, trace = sv.primal_dual_graph(Z, sv.DegreeTerm("log_barrier"), beta)
            assert trace.converged and trace.iters_used <= 500
            assert trace.notes["kkt_residual"] <= 1e-6 * trace.notes["kkt_scale"]


def test_signless_laplacian_matches_dense_degree_map():
    # the engine's Newton matrix B diag(a) B' + diag(h), built by index
    # arithmetic, against the dense degree map
    rng = np.random.default_rng(23)
    for n in range(2, 31):
        iu, ju = np.triu_indices(n, 1)
        B = _degree_map(n)
        a = np.where(rng.random(iu.size) < 0.5, rng.uniform(0.0, 3.0, iu.size), 0.0)
        h = rng.uniform(0.0, 2.0, n)
        np.testing.assert_allclose(sv._signless_laplacian(n, iu, ju, a, h),
                                   B @ np.diag(a) @ B.T + np.diag(h),
                                   rtol=1e-14, atol=1e-14)


def test_simplex_projection_properties():
    rng = np.random.default_rng(19)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 12))
        s = float(rng.uniform(0.1, 3.0))
        p = sv.project_simplex(v, s)
        assert p.min() >= 0
        assert p.sum() == pytest.approx(s, abs=1e-9)
        # oracle: compare against direct scipy optimization
        res = minimize(lambda u: np.sum((u - v) ** 2), np.full(v.size, s / v.size),
                       bounds=[(0, None)] * v.size,
                       constraints=[{"type": "eq",
                                     "fun": lambda u: u.sum() - s}],
                       method="SLSQP", options={"ftol": 1e-12})
        assert np.abs(p - res.x).max() <= 1e-5
