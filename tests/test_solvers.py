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
import glkit.statnet as stn
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
        with pytest.warns(UserWarning, match="its 1-sweep cap on 1 of 1 problems"):
            beta, trace = sv.lasso_cd(A, rng.standard_normal(50), 0.01,
                                      make_config(max_iters=1, tol=1e-14))
        assert trace.converged is False and trace.status == "max_iters"
        # one warning per call, however many rows stop at the cap
        R = rng.standard_normal((3, 50)) @ A
        with pytest.warns(UserWarning, match="3 of 3 problems") as record:
            _, trace = sv.lasso_cd_gram(A.T @ A, R, 0.01,
                                        make_config(max_iters=1, tol=1e-14))
        assert len(record) == 1 and trace.converged is False
        assert trace.status == "max_iters"

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


def qp_oracle_projection(S0):
    """Projection onto the constraint set by direct NLP over the edge
    vector w of W(w) (small n only)."""
    n = S0.shape[0]
    iu, ju = np.triu_indices(n, 1)

    def unpack(w):
        M = np.zeros((n, n))
        M[iu, ju] = w
        M[ju, iu] = w
        return M

    def obj(w):
        return np.sum((unpack(w) - S0) ** 2)

    def grad(w):
        R = unpack(w) - S0
        return 2.0 * (R[iu, ju] + R[ju, iu])

    # the scale equality as a'w = b
    a, b = (iu == 0).astype(float), 1.0
    res = minimize(obj, a * (b / (a @ a)), jac=grad, bounds=[(0, None)] * iu.size,
                   constraints=[{"type": "eq", "fun": lambda w: a @ w - b,
                                 "jac": lambda w: a}], method="SLSQP",
                   options={"maxiter": 500, "ftol": 1e-12})
    assert res.success
    return unpack(res.x)


SHIFT_SETS = {"first_node": sv.ShiftConstraintSet()}


def dense_scale_equality(n):
    """(A, b) of the set's scale equality <A, S> = b as a dense matrix."""
    A = np.zeros((n, n))
    A[:, 0] = 1.0
    return A, 1.0


def dense_l1_tilt(n):
    """G with <G, S> = ||S||_1 on the sets: ones off the diagonal."""
    return np.ones((n, n)) - np.eye(n)


def feasible_point(n, rng):
    """A random member of the set with about half its edges present."""
    W = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
    W[0, 1] = 1.0  # keeps the first vertex's degree positive
    W = W + W.T
    return W / W[:, 0].sum()


class TestShiftProjection:
    def test_the_one_set_takes_no_arguments(self):
        assert sv.ShiftConstraintSet() == SHIFT_SETS["first_node"]
        with pytest.raises(TypeError):
            sv.ShiftConstraintSet("total")

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
            oracle = qp_oracle_projection(S0)
            assert np.abs(ours - oracle).max() <= 1e-6
            # never farther from S0 than the oracle's point
            assert np.linalg.norm(ours - S0) <= np.linalg.norm(oracle - S0) + 1e-12

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
        P = cset.project(M)
        assert cset.violation(P) <= 1e-9 * max(1.0, np.abs(M).max())
        for _ in range(3):
            Y = feasible_point(n, rng)
            scale = max(1.0, np.linalg.norm(M)) * max(1.0, np.linalg.norm(Y - P))
            assert np.sum((M - P) * (Y - P)) <= 1e-8 * scale
            np.testing.assert_allclose(cset.project(Y), Y, rtol=0,
                                       atol=1e-9 * max(1.0, np.abs(Y).max()))

    @given(hst.sampled_from(list(SHIFT_SETS)), hst.integers(1, 9),
           hst.floats(-3.0, 3.0), hst.integers(0, 2 ** 32 - 1))
    def test_violation_matches_dense_definition(self, name, n, u, seed):
        # asymmetric, signed, nonzero diagonal: every condition is violated
        rng = np.random.default_rng(seed)
        cset = SHIFT_SETS[name]
        M = 10.0 ** u * rng.standard_normal((n, n))
        A, b = dense_scale_equality(n)
        off = M - np.diag(np.diag(M))
        expected = max(np.abs(M - M.T).max(), abs((A * M).sum() - b), -off.min(),
                       np.abs(np.diag(M)).max())
        assert cset.violation(M) == pytest.approx(expected, rel=1e-12,
                                                  abs=1e-12 * max(1.0, n * np.abs(M).max()))


def _reference_project(cset, M):
    """The adjacency projection as written before the cached edge index:
    symmetrize, gather by 2-D indexing, mask the tied entries, scatter."""
    M = np.asarray(M, float)
    n = M.shape[0]
    S = 0.5 * (M + M.T)
    iu, ju = np.triu_indices(n, 1)
    out = np.zeros_like(S)
    vals = S[iu, ju]
    tied = iu == 0
    w = np.empty_like(vals)
    w[~tied] = np.maximum(vals[~tied], 0.0)
    w[tied] = sv.project_simplex(vals[tied], 1.0)
    out[iu, ju] = w
    out[ju, iu] = w
    return out


def _reference_coupling(coupling, M):
    """SpectralCoupling.project as written before it worked in place."""
    V = coupling.V
    Mt = V.T @ (0.5 * (M + M.T)) @ V
    T = V @ np.diag(np.diag(Mt)) @ V.T
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

    @given(hst.integers(2, 60), hst.floats(-3.0, 3.0), hst.booleans(),
           hst.integers(0, 2 ** 32 - 1))
    def test_adjacency_projection_matches_reference(self, n, u, transposed, seed):
        cset = sv.ShiftConstraintSet()
        M = 10.0 ** u * np.random.default_rng(seed).standard_normal((n, n))
        if transposed:  # a non-contiguous input
            M = M.T
        before = M.copy()
        assert np.array_equal(cset.project(M), _reference_project(cset, M))
        assert np.array_equal(M, before)

    @given(hst.integers(2, 60), hst.floats(-3.0, 3.0), hst.integers(0, 2 ** 32 - 1))
    def test_coupling_matches_reference(self, n, u, seed):
        rng = np.random.default_rng(seed)
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = 10.0 ** u * rng.standard_normal((n, n))
        before = M.copy()
        coupling = sv.SpectralCoupling(V)
        assert np.array_equal(coupling.project(M), _reference_coupling(coupling, M))
        assert np.array_equal(M, before)

    @pytest.mark.parametrize("case", ["zero", "tiny", "ball", "diagonal"])
    def test_coupling_cases(self, case):
        # a generic matrix, a member of the span 1e-12 away from it, a
        # member itself, and a diagonal one under a permutation basis
        rng = np.random.default_rng(31)
        n = 8
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = {"zero": rng.standard_normal((n, n)), "diagonal": np.diag(rng.standard_normal(n)),
             "tiny": (V * rng.standard_normal(n)) @ V.T + 1e-12 * rng.standard_normal((n, n)),
             "ball": (V * rng.standard_normal(n)) @ V.T}[case]
        if case == "diagonal":  # exact arithmetic: M lies exactly in the span
            V = np.eye(n)[rng.permutation(n)]
            assert _off_norm(V, M) == 0.0
        coupling = sv.SpectralCoupling(V)
        out = coupling.project(M)
        assert np.array_equal(out, _reference_coupling(coupling, M))
        assert _off_norm(V, out) <= 1e-12 * np.abs(M).max()  # the residual is gone
        if case == "diagonal":
            assert np.array_equal(out, M)
        elif case != "zero":  # within rounding of the span: sym(M) comes back
            np.testing.assert_allclose(out, 0.5 * (M + M.T), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("name", list(SHIFT_SETS))
    def test_nnls_path_matches_reference(self, name, monkeypatch):
        # a path's spectrum is symmetric: at eps = 0 free directions remain,
        # and the Frobenius objective solves its NNLS
        W = np.diag(np.ones(7), 1)
        V = gc.eigendecompose(W + W.T).vecs
        cset = SHIFT_SETS[name]
        S, _, trace = sv.infer_shift(V, cset, 0.0, objective="frobenius")
        monkeypatch.setattr(sv.ShiftConstraintSet, "project", _reference_project)
        S_ref, _, trace_ref = sv.infer_shift(V, cset, 0.0, objective="frobenius")
        assert trace.status == "exact" and trace.notes["lp_rounds"] == 1
        assert np.array_equal(S, S_ref)
        assert trace.notes == trace_ref.notes


def alternating_gap(V, tol, max_iters):
    """The gap by plain alternating projections: the distance sequence
    falls monotonically; stops once it falls by at most tol relative."""
    coupling = sv.SpectralCoupling(V)
    cset = sv.ShiftConstraintSet()
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
        with monkeypatch.context() as m:
            m.setattr(sv, "SPECTRAL_GAP_MAX_ITERS", 2)
            with pytest.warns(UserWarning, match="cap"):
                capped, _, capped_trace = sv.spectral_gap(V)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap, _, trace = sv.spectral_gap(V)
        assert type(capped) is float and type(gap) is float
        # the smallest distance seen can only fall with more iterations
        assert capped >= gap > 0
        assert not capped_trace.converged and capped_trace.iters_used == 2
        assert capped_trace.status == "max_iters" and trace.status == "converged"
        assert trace.converged and 2 < trace.iters_used < sv.SPECTRAL_GAP_MAX_ITERS
        assert len(trace.objective) == trace.iters_used and min(trace.objective) == gap

    def test_returns_the_set_member_at_the_gap(self):
        V = sampled_basis(12, 5)
        gap, S, _ = sv.spectral_gap(V)
        assert sv.ShiftConstraintSet().violation(S) <= 1e-12
        # the span point T of S's pair is no closer to S than its projection
        assert ball_distance(V, S) <= gap * (1 + 1e-12)

    @given(hst.integers(4, 12), hst.floats(-3.0, 3.0), hst.integers(0, 2 ** 32 - 1))
    def test_upper_bound_close_to_tight_reference(self, n, u, seed):
        G = sim.gen_er_graph(n, 0.4, rng=seed, require_connected=True)
        X = 10.0 ** u * sim.gen_diffusion(G, [1.0, 0.5, 0.2], 200, rng=seed).data
        V = gc.eigendecompose(np.cov(X)).vecs
        gap = sv.spectral_gap(V)[0]
        ref = alternating_gap(V, 1e-13, 200000)
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
            sv.spectral_gap(V)
        assert len(calls) <= 400


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that grows by one at each scipy.optimize.linprog call."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr("scipy.optimize.linprog", recorded)
    return calls


def dense_rows(V):
    """The eps = 0 set over the entries S_ij, i <= j: (ti, tj, the l1
    tilt G, equality rows and values, sign rows a_ub x <= 0). The equality
    rows are the set's and (U'SU)_ab = 0 for each a < b with a among the K
    given columns (U = [V Vc])."""
    n, k = V.shape
    ti, tj = np.triu_indices(n)

    def lin(M):  # coefficients of <M, S> over the entries
        return (M + M.T - np.diag(np.diag(M)))[ti, tj]

    U = np.hstack([V, np.linalg.qr(V, mode="complete")[0][:, k:]])
    G = dense_l1_tilt(n)
    off = ti != tj
    a_eq = [lin(np.outer(U[:, a], U[:, b]))
            for a in range(k) for b in range(a + 1, n)]
    a_eq += [lin(np.diag(np.eye(n)[i])) for i in range(n)]
    A, b = dense_scale_equality(n)
    a_eq.append(lin(A))
    b_eq = np.zeros(len(a_eq))
    b_eq[-1] = b
    return ti, tj, G, np.vstack(a_eq), b_eq, -G[ti, tj][off, None] * np.eye(ti.size)[off]


def assemble_entries(x, ti, tj, n):
    S = np.zeros((n, n))
    S[ti, tj] = x[:ti.size]
    S[tj, ti] = x[:ti.size]
    return S


def dense_lp_oracle(V, objective):
    """The eps = 0 spectral-template LP in one HiGHS call over the entries
    S_ij, i <= j, with every row of :func:`dense_rows` present and the l1
    objective <G, S> or a sup-norm epigraph. Returns the linprog result
    and the assembled S (None when not solved)."""
    ti, tj, G, a_eq, b_eq, signs = dense_rows(V)
    if objective == "l1":
        c, a_ub, bounds = G[ti, tj] * (1 + (ti != tj)), signs, (None, None)
    else:
        absolute = G[ti, tj][:, None] * np.eye(ti.size)
        a_ub = np.block([[signs, np.zeros((signs.shape[0], 1))],
                         [absolute, -np.ones((ti.size, 1))]])
        a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
        c = np.append(np.zeros(ti.size), 1.0)
        bounds = [(None, None)] * ti.size + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                  b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        return res, None
    return res, assemble_entries(res.x, ti, tj, V.shape[0])


def dense_frobenius_oracle(V):
    """min ||S||_F over the eps = 0 set of :func:`dense_rows` by SLSQP."""
    ti, tj, _, a_eq, b_eq, signs = dense_rows(V)
    wt = np.where(ti == tj, 1.0, 2.0)  # off-diagonal entries count twice
    x0 = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    res = minimize(lambda x: x @ (wt * x), x0, jac=lambda x: 2.0 * wt * x, method="SLSQP",
                   constraints=[{"type": "eq", "fun": lambda x: a_eq @ x - b_eq,
                                 "jac": lambda x: a_eq},
                                {"type": "ineq", "fun": lambda x: -signs @ x,
                                 "jac": lambda x: -signs}],
                   options={"ftol": 1e-15, "maxiter": 2000})
    return assemble_entries(res.x, ti, tj, V.shape[0])


class TestLogdetProxGradient:
    # min -log x + 2x over x > 0: x = 1/2
    scalar = (lambda x: x.reshape(1, 1), lambda C: C.ravel(), np.array([2.0]))

    def test_scalar_likelihood(self):
        x, trace = sv.logdet_prox_gradient(*self.scalar, lambda v, t: v, lambda x: 0.0,
                                           np.array([3.0]), 9.0, make_config())
        assert trace.status == "converged" and trace.kkt_residual <= 1e-7
        assert x[0] == pytest.approx(0.5, rel=1e-7)

    def test_capped_and_stalled_solves_warn(self):
        with pytest.warns(UserWarning, match="3-iteration cap"):
            _, trace = sv.logdet_prox_gradient(*self.scalar, lambda v, t: v, lambda x: 0.0,
                                               np.array([3.0]), 9.0,
                                               make_config(max_iters=3))
        assert not trace.converged and trace.iters_used == 3
        assert trace.status == "max_iters"
        # from the optimum a "prox" that adds 1 only moves uphill: no step
        # passes the Armijo test
        with pytest.warns(UserWarning, match="60 step halvings"):
            _, trace = sv.logdet_prox_gradient(*self.scalar, lambda v, t: v + 1.0,
                                               lambda x: 0.0,
                                               np.array([0.5]), 1.0, make_config())
        assert not trace.converged and trace.iters_used == 0
        assert trace.status == "stalled"


NORMS = {"l1": lambda S: np.abs(S).sum(), "linf": lambda S: np.abs(S).max(),
         "frobenius": np.linalg.norm}


class TestAdmmKernel:
    """The eps > 0 engine's scalar roots at the badly scaled ends of their
    brackets."""

    def test_balancing_solves_a_badly_scaled_pair(self, monkeypatch):
        # eps just above the exact gap puts the ball multiplier near
        # infinity (theta near 1), just below the nearest member's
        # distance near 0 (theta near 0, t near 1 / (N - 1)); the l1 walk
        # is made to fail so that its root runs too
        monkeypatch.setattr(sv._EdgeKKT, "walk", lambda self, w: None)
        V = sampled_basis(8, 2)
        nearest = ball_distance(V, sv.ShiftConstraintSet().project(np.zeros((8, 8))))
        for eps in (gap_oracle(V) * (1 + 1e-3), nearest * (1 - 1e-3)):
            for objective, norm in NORMS.items():
                S, _, trace = sv.infer_shift(V, None, eps, objective=objective)
                assert trace.status == "certified"
                assert trace.kkt_residual <= sv.SolverConfig().tol
                assert sv.ShiftConstraintSet().violation(S) <= 1e-9
                assert ball_distance(V, S) <= eps * (1 + 1e-9)
                oracle = slsqp_oracle(V, eps, objective)
                assert norm(S) == pytest.approx(norm(oracle), rel=1e-6)


class TestActiveSetQP:
    @given(n=hst.integers(5, 10), seed=hst.integers(0, 10_000), p=hst.integers(200, 5000),
           objective=hst.sampled_from(list(NORMS)),
           margin=hst.one_of(hst.floats(0.2, 0.95), hst.floats(1.05, 4.0)))
    @settings(max_examples=60)
    def test_exact_against_slsqp(self, n, seed, p, objective, margin):
        # below SLSQP's gap: Infeasible; above it: a certified member
        # within eps, no worse than SLSQP's point wherever that lies
        # within eps (its own rounding aside)
        V, cset = sampled_basis(n, seed, p), sv.ShiftConstraintSet()
        eps, config, norm = margin * gap_oracle(V), sv.SolverConfig(tol=1e-10), NORMS[objective]
        if margin < 1:
            with pytest.raises(Infeasible):
                sv.infer_shift(V, cset, eps, objective, config)
            return
        S, _, trace = sv.infer_shift(V, cset, eps, objective, config)
        assert cset.violation(S) <= 1e-9 and ball_distance(V, S) <= eps * (1 + 1e-9)
        if trace.status == "exact":  # the nearest member lies within eps
            np.testing.assert_array_equal(S, cset.project(np.zeros((n, n))))
            return
        assert trace.status == "certified" and trace.kkt_residual <= config.tol
        oracle = slsqp_oracle(V, eps, objective)
        assert norm(S) == pytest.approx(norm(oracle), rel=1e-6)
        if ball_distance(V, oracle) <= eps * (1 + 1e-12):
            assert norm(S) <= norm(oracle) + 1e-9

    @pytest.mark.parametrize("n,seed,margin", [(50, 3, 0.5), (100, 3, 0.5), (8, 629093, 3e-5)])
    def test_exact_bases_are_certified_in_few_solves(self, n, seed, margin):
        # exact eigenvectors: phase 1 reaches the span and the walk meets a
        # singular support. At half the nearest member's distance the
        # optima hold nearly every pair, which one edge per solve took over
        # 5000 solves to reach at N = 100; at N = 8 the sup-norm's bound
        # passes where min w'Aw is flat at 0, which a stall once ended
        _, basis = diffusion_basis(n, seed)
        V, cset = basis.vecs, sv.ShiftConstraintSet()
        eps = margin * ball_distance(V, cset.project(np.zeros((n, n))))
        sols = {}
        for objective in NORMS:
            S, _, trace = sv.infer_shift(V, cset, eps, objective)
            assert trace.status == "certified" and trace.iters_used <= 150
            assert cset.violation(S) <= 1e-9 and ball_distance(V, S) <= eps * (1 + 1e-9)
            sols[objective] = S
        for objective, norm in NORMS.items():
            assert all(norm(sols[objective]) <= norm(S) * (1 + 1e-7) for S in sols.values())

    def test_singular_supports_take_null_space_steps(self, monkeypatch):
        # a path's symmetric spectrum leaves V o V two or more null
        # directions: supports with a zero-curvature direction arise, and
        # the solves step along it to a bound
        eqp, singular = sv._EdgeKKT.eqp, []

        def recorded(self, *args):
            out = eqp(self, *args)
            singular.append(out[1] is None)
            return out
        monkeypatch.setattr(sv._EdgeKKT, "eqp", recorded)
        W = np.diag(np.ones(7), 1)
        V = gc.eigendecompose(W + W.T).vecs
        for objective, norm in NORMS.items():
            S, _, trace = sv.infer_shift(V, None, 0.01, objective)
            assert trace.status == "certified"
            assert norm(S) == pytest.approx(norm(slsqp_oracle(V, 0.01, objective)), rel=1e-6)
        assert any(singular)


class TestAdmmSpectral:
    def test_two_cycle_recovery(self):
        basis = gc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        S, lam, trace = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0)
        np.testing.assert_allclose(S, [[0, 1], [1, 0]], atol=1e-8)
        assert trace.converged

    def test_identity_basis_infeasible(self):
        with pytest.raises(Infeasible):
            sv.infer_shift(np.eye(3), sv.ShiftConstraintSet(), 0.0)

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
            _, oracle = dense_lp_oracle(basis.vecs, "l1")
            if oracle is None:
                continue
            S, _, trace = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0)
            assert np.abs(S).sum() <= np.abs(oracle).sum() + 1e-6
            assert np.abs(S - oracle).max() <= 1e-5
            hits += 1
        assert hits >= 4

    def test_huge_eps_reaches_sparsest_member(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cset = sv.ShiftConstraintSet()
        S, _, trace = sv.infer_shift(q, cset, 1e6)
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
        S, _, trace = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0)
        assert trace.status == "exact"
        # S is exactly diagonalized by the basis
        assert np.linalg.norm(sv._offdiag(basis.vecs.T @ S @ basis.vecs)) <= 1e-6

    def test_deterministic(self):
        basis = gc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out1 = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0)
        out2 = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0)
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_frobenius_objective_feasible(self):
        rng = np.random.default_rng(15)
        W = np.zeros((5, 5))
        W[0, 1] = W[1, 0] = 1.0
        W[1, 2] = W[2, 1] = 1.0
        basis = gc.eigendecompose(W)
        S, _, trace = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0,
                                     objective="frobenius")
        cset = sv.ShiftConstraintSet()
        assert cset.violation(S) <= 1e-6

    def test_frobenius_with_free_directions_runs_the_admm(self, lp_calls):
        # a path's spectrum is symmetric, so V o V repeats its columns:
        # the zero diagonal leaves a set of members, searched by one NNLS
        cset = sv.ShiftConstraintSet()
        for n in (4, 6, 8):
            W = np.diag(np.ones(n - 1), 1)
            V = gc.eigendecompose(W + W.T).vecs
            S, _, trace = sv.infer_shift(V, cset, 0.0, objective="frobenius")
            assert trace.status == "exact" and trace.notes["lp_rounds"] == 1
            assert not lp_calls
            assert cset.violation(S) <= 1e-12 and ball_distance(V, S) <= 1e-12
            oracle = dense_frobenius_oracle(V)
            assert cset.violation(oracle) <= 1e-9 and ball_distance(V, oracle) <= 1e-9
            assert np.linalg.norm(S) <= np.linalg.norm(oracle) + 1e-9
            np.testing.assert_allclose(S, oracle, rtol=0, atol=1e-6)
            S_l1, _, _ = sv.infer_shift(V, cset, 0.0)
            assert np.linalg.norm(S) <= np.linalg.norm(S_l1) + 1e-12
            lp_calls.clear()

    def test_frobenius_at_eps_zero_takes_the_fixed_point(self):
        # an exact basis leaves one feasible point, optimal for every objective
        cset = sv.ShiftConstraintSet()
        _, basis = diffusion_basis(20, 4)
        S_l1, lam_l1, _ = sv.infer_shift(basis.vecs, cset, 0.0)
        S, lam, trace = sv.infer_shift(basis.vecs, cset, 0.0, objective="frobenius")
        assert trace.converged and trace.iters_used == 0
        assert trace.notes["lp_rounds"] == 0 and trace.notes["eps"] == 0.0
        assert np.abs(S - S_l1).max() <= 1e-9 and np.abs(lam - lam_l1).max() <= 1e-9
        assert trace.objective[-1] == pytest.approx(np.linalg.norm(S), rel=1e-12)


def sampled_basis(n, seed, p=2000):
    """Eigenbasis of the sample covariance of P diffused signals."""
    G = sim.gen_er_graph(n, 0.4, rng=seed, require_connected=True)
    X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], p, rng=seed + 50)
    return sid.estimate_eigenbasis(X)[0].vecs


def edge_problem(V):
    """(A, a, b) of the eps > 0 problem over the edge vector w: the ball
    reads w'Aw <= eps^2 and the scale a'w = b."""
    n = V.shape[0]
    iu, ju = gc.edge_index(n)
    B = 2.0 * V[iu] * V[ju]
    Aeq, b = dense_scale_equality(n)
    return 2.0 * np.eye(iu.size) - B @ B.T, Aeq[iu, ju] + Aeq[ju, iu], b


def slsqp_oracle(V, eps, objective="l1"):
    """min ||S||_1 = 2 sum(w) over the edge vector by SLSQP, from the
    uniform point of the scale equality; for ``objective="linf"`` the
    epigraph form min t over (w, t) with w <= t, and for
    ``objective="frobenius"`` min ||S||_F^2 = 2 w'w."""
    A, a, b = edge_problem(V)
    m = a.size
    x0 = np.full(m, b / a.sum())
    c = np.full(m, 2.0)
    ball = [{"type": "ineq", "fun": lambda x: eps * eps - x[:m] @ A @ x[:m],
             "jac": lambda x: np.r_[-2.0 * A @ x[:m], np.zeros(x.size - m)]}]
    if objective == "linf":
        x0, c = np.r_[x0, x0[0]], np.r_[np.zeros(m), 1.0]
        ball.append({"type": "ineq", "fun": lambda x: x[m] - x[:m],
                     "jac": lambda x: np.hstack([-np.eye(m), np.ones((m, 1))])})
    if objective == "frobenius":
        res = minimize(lambda x: 2.0 * x @ x, x0, jac=lambda x: 4.0 * x, method="SLSQP",
                       bounds=[(0.0, None)] * m,
                       constraints=[{"type": "eq", "fun": lambda x: a @ x - b,
                                     "jac": lambda x: a}] + ball,
                       options={"ftol": 1e-14, "maxiter": 2000})
        return gc.weights_from_edge_vector(res.x, V.shape[0])
    res = minimize(lambda x: c @ x, x0, jac=lambda x: c, method="SLSQP",
                   bounds=[(0.0, None)] * x0.size,
                   constraints=[{"type": "eq", "fun": lambda x: a @ x[:m] - b,
                                 "jac": lambda x: np.r_[a, np.zeros(x.size - m)]}] + ball,
                   options={"ftol": 1e-14, "maxiter": 2000})
    return gc.weights_from_edge_vector(res.x[:m], V.shape[0])


def gap_oracle(V):
    """The exact feasibility gap: min sqrt(w'Aw) over the set by SLSQP."""
    A, a, b = edge_problem(V)
    x0 = np.full(a.size, b / a.sum())
    res = minimize(lambda x: x @ A @ x, x0, jac=lambda x: 2.0 * A @ x, method="SLSQP",
                   bounds=[(0.0, None)] * a.size,
                   constraints=[{"type": "eq", "fun": lambda x: a @ x - b, "jac": lambda x: a}],
                   options={"ftol": 1e-15, "maxiter": 2000})
    return float(np.sqrt(max(res.fun, 0.0)))


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


class TestSupportFinisher:
    """The closed-form solve of :class:`sv._EdgeKKT` on a support and its
    certificate, reached through phase 1 and the active-set walk."""

    @pytest.mark.parametrize("n,seed", [(6, 0), (6, 3), (8, 1), (8, 2), (10, 2), (10, 3)])
    def test_matches_slsqp_first_node(self, n, seed):
        V = sampled_basis(n, seed)
        cset = sv.ShiftConstraintSet()
        eps = 3.0 * sv.spectral_gap(V)[0]
        S, lam, trace = sv.infer_shift(V, cset, eps)
        assert trace.status == "certified" and 1 <= trace.iters_used <= 60
        assert "walk_rounds" not in trace.notes
        assert trace.kkt_residual <= sv.SolverConfig().tol
        assert trace.notes["eps"] == eps
        oracle = slsqp_oracle(V, eps)
        assert ball_distance(V, oracle) <= eps * (1 + 1e-8)
        # the certified point is optimal: no feasible point does better
        assert np.abs(S).sum() <= np.abs(oracle).sum() + 1e-9
        assert np.abs(S - oracle).max() <= 1e-6
        np.testing.assert_allclose(lam, np.diag(V.T @ S @ V), atol=1e-12)

    def test_inactive_ball_falls_through(self, gap_calls):
        # the set's point nearest zero is l1-minimal on the set; within
        # eps of the span it is optimal, returned as is, and no gap is
        # computed
        V = sampled_basis(8, 2)
        cset = sv.ShiftConstraintSet()
        nearest = ball_distance(V, cset.project(np.zeros((8, 8))))
        S, _, trace = sv.infer_shift(V, cset, nearest * (1 + 1e-3))
        assert "walk_rounds" not in trace.notes
        assert trace.status == "exact" and trace.iters_used == 0
        np.testing.assert_array_equal(S, cset.project(np.zeros((8, 8))))
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-12)
        # just inside that distance the ball binds and phase 1 and the walk
        # run; a numeric eps needs no spectral_gap
        S, _, trace = sv.infer_shift(V, cset, nearest * (1 - 1e-3))
        assert not gap_calls and trace.iters_used >= 1
        assert trace.converged and cset.violation(S) <= 1e-9
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-9)

    def test_eps_below_gap_falls_through(self, gap_calls, monkeypatch):
        # phase 1 reaches the exact gap and proves eps infeasible, well
        # inside the cap, under every objective
        V = sampled_basis(8, 1)
        cset = sv.ShiftConstraintSet()
        eps = 0.5 * gap_oracle(V)
        solves = []
        qp = sv._EdgeKKT.qp

        def counted(self, *args, **kwargs):
            out = qp(self, *args, **kwargs)
            solves.append(self.solves)
            return out
        monkeypatch.setattr(sv._EdgeKKT, "qp", counted)
        for objective in NORMS:
            solves.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(Infeasible, match="feasibility gap"):
                    sv.infer_shift(V, cset, eps, objective=objective)
            assert len(solves) == 1 and 1 <= solves[0] <= 60
        assert not gap_calls

    def test_certificate_checks_bind(self, monkeypatch):
        V = sampled_basis(8, 1)
        cset = sv.ShiftConstraintSet()
        eps = 2.0 * sv.spectral_gap(V)[0]
        S, _, trace = sv.infer_shift(V, cset, eps)
        assert trace.status == "certified" and trace.iters_used >= 1
        assert trace.kkt_residual > 1e-16  # rounding
        # a tol below rounding: neither the walk nor the root certifies
        with pytest.warns(UserWarning, match="infer_shift stopped"):
            _, _, trace = sv.infer_shift(V, cset, eps,
                                         config=sv.SolverConfig(tol=1e-16, max_iters=500))
        assert trace.kkt_residual is None and not trace.converged
        assert trace.status in ("max_iters", "stalled")
        # the solution lies on the ball, outside a negative slack, and the
        # ball check alone rejects it once the set check passes anything
        monkeypatch.setattr(sv, "_FINISH_ROUNDING", -1e-6)
        monkeypatch.setattr(sv.ShiftConstraintSet, "violation", lambda self, M: -np.inf)
        with pytest.warns(UserWarning, match="infer_shift stopped"):
            _, _, trace = sv.infer_shift(V, cset, eps, config=sv.SolverConfig(max_iters=500))
        assert trace.kkt_residual is None and not trace.converged
        assert trace.status in ("max_iters", "stalled")

    @given(n=hst.integers(5, 10), seed=hst.integers(0, 10_000),
           p=hst.integers(200, 5000), margin=hst.floats(1.1, 4.0))
    def test_certified_points_are_feasible(self, n, seed, p, margin):
        V = sampled_basis(n, seed, p)
        cset = sv.ShiftConstraintSet()
        eps = margin * sv.spectral_gap(V)[0]
        S, _, trace = sv.infer_shift(V, cset, eps)
        assume(trace.status == "certified")
        assert cset.violation(S) <= 1e-9
        assert ball_distance(V, S) <= eps * (1 + 1e-9)
        assert trace.kkt_residual <= sv.SolverConfig().tol


def er_sampled_basis(n, seed, p):
    """Eigenbasis of the sample covariance of P diffused signals on an
    ER draw with the benchmark's edge probability."""
    G = sim.gen_er_graph(n, 0.3, rng=seed, require_connected=True)
    X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], p, rng=seed + 50)
    return sid.estimate_eigenbasis(X)[0].vecs


class TestActiveSetWalk:
    """The eps > 0 l1 solve on the first_node set, eps="auto" included:
    the walk from spectral_gap's feasible point (phase 1's for a numeric
    eps), and the scalar root when the walk fails."""

    @given(n=hst.integers(6, 20), seed=hst.integers(0, 10_000),
           p=hst.integers(200, 5000))
    @settings(max_examples=30)
    def test_walk_certifies_the_cold_solve(self, n, seed, p):
        V = er_sampled_basis(n, seed, p)
        cset = sv.ShiftConstraintSet()
        S, lam, trace = sv.infer_shift(V, cset, "auto")
        eps = trace.notes["eps"]
        assert eps == 2.0 * sv.spectral_gap(V)[0]
        # a numeric eps equal to auto's walks from the same point
        cold, cold_lam, cold_trace = sv.infer_shift(V, cset, eps)
        np.testing.assert_array_equal(S, cold)
        np.testing.assert_array_equal(lam, cold_lam)
        assert cold_trace.notes == trace.notes and cold_trace.status == trace.status
        assume(trace.status == "certified")
        assert 1 <= trace.iters_used <= sv.SolverConfig().max_iters
        assert cset.violation(S) <= 1e-9
        assert ball_distance(V, S) <= eps * (1 + 1e-9)
        assert trace.kkt_residual <= sv.SolverConfig().tol

    @pytest.mark.parametrize("n,seed", [(6, 0), (8, 1), (10, 2)])
    def test_walk_matches_slsqp(self, n, seed, gap_calls):
        V = sampled_basis(n, seed)
        cset = sv.ShiftConstraintSet()
        S, _, trace = sv.infer_shift(V, cset, "auto")
        assert len(gap_calls) == 1 and trace.status == "certified"
        oracle = slsqp_oracle(V, trace.notes["eps"])
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
        assert trace.status == "certified" and 1 <= trace.iters_used <= 60
        assert trace.kkt_residual <= sv.SolverConfig().tol

    @pytest.fixture
    def problem(self):
        V = sampled_basis(10, 2)
        cset = sv.ShiftConstraintSet()
        S, _, trace = sv.infer_shift(V, cset, "auto")
        assert trace.status == "certified"
        return V, cset, trace.notes["eps"], S

    def fallback_matches(self, V, cset, eps, walked,
                         violation=sv.ShiftConstraintSet.violation):
        """The root's certified solve agrees with the walk's and SLSQP's."""
        S, _, trace = sv.infer_shift(V, cset, eps)
        assert trace.status == "certified" and trace.kkt_residual <= sv.SolverConfig().tol
        assert violation(cset, S) <= 1e-9 and ball_distance(V, S) <= eps * (1 + 1e-9)
        oracle = slsqp_oracle(V, eps)
        assert np.abs(S).sum() <= np.abs(oracle).sum() + 1e-6
        assert np.abs(S).sum() == pytest.approx(np.abs(walked).sum(), rel=1e-7)
        np.testing.assert_allclose(S, walked, rtol=0, atol=1e-5)

    def test_capped_walk_falls_back_to_the_admm(self, problem, monkeypatch):
        # a singular or ball-inactive support ends the walk
        V, cset, eps, walked = problem
        monkeypatch.setattr(sv._EdgeKKT, "solve", lambda self, E: None)
        self.fallback_matches(V, cset, eps, walked)

    def test_failed_certificate_falls_back_to_the_admm(self, problem, monkeypatch):
        # the walk checks the set on S itself: when that check fails, the
        # root, whose point is renormalised onto the scale row, takes over
        V, cset, eps, walked = problem
        monkeypatch.setattr(sv.ShiftConstraintSet, "violation", lambda self, M: np.inf)
        self.fallback_matches(V, cset, eps, walked)

    @pytest.mark.parametrize("objective", ["linf", "frobenius"])
    def test_other_objectives_ignore_the_start(self, objective, gap_calls):
        V = sampled_basis(6, 1)
        cset = sv.ShiftConstraintSet()
        eps = 2.0 * sv.spectral_gap(V)[0]
        out = sv.infer_shift(V, cset, eps, objective=objective)
        # no feasible start is computed for them: eps="auto" calls
        # spectral_gap once, for eps alone, and solves as the numeric eps
        assert len(gap_calls) == 1
        auto = sv.infer_shift(V, cset, "auto", objective=objective)
        assert len(gap_calls) == 2
        np.testing.assert_array_equal(out[0], auto[0])
        assert out[2].notes == auto[2].notes and "walk_rounds" not in out[2].notes
        assert out[2].converged and out[2].iters_used > 0


class TestExactSteps:
    """The steps infer_shift takes before or in place of iterating:
    the set's point nearest zero, and the sup-norm's exact prox block."""

    @pytest.mark.parametrize("name", ["first_node"])  # eps > 0 takes no other set
    @pytest.mark.parametrize("objective", ["l1", "linf", "frobenius"])
    def test_nearest_member_returns_in_closed_form(self, name, objective, gap_calls):
        cset = SHIFT_SETS[name]
        V = sampled_basis(8, 2)
        nearest = cset.project(np.zeros((8, 8)))
        # project(0) minimises every objective on the set
        norm = {"l1": lambda S: np.abs(S).sum(), "linf": lambda S: np.abs(S).max(),
                "frobenius": np.linalg.norm}[objective]
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert norm(nearest) <= norm(feasible_point(8, rng)) * (1 + 1e-12)
        dist = ball_distance(V, nearest)
        for eps in (dist, 2.0 * dist):
            S, lam, trace = sv.infer_shift(V, cset, eps, objective=objective)
            np.testing.assert_array_equal(S, nearest)
            assert trace.converged and trace.iters_used == 0
            assert trace.notes["eps"] == eps and "walk_rounds" not in trace.notes
            np.testing.assert_allclose(lam, np.diag(V.T @ S @ V), atol=1e-12)
        assert not gap_calls

    @pytest.mark.parametrize("name", ["first_node"])  # eps > 0 takes no other set
    @pytest.mark.parametrize("n,seed", [(8, 1), (10, 2), (12, 3)])
    def test_linf_matches_the_epigraph_oracle(self, name, n, seed):
        cset = SHIFT_SETS[name]
        V = sampled_basis(n, seed)
        eps = 2.0 * sv.spectral_gap(V)[0]
        assert ball_distance(V, cset.project(np.zeros((n, n)))) > eps  # the root runs
        oracle = slsqp_oracle(V, eps, "linf")
        assert ball_distance(V, oracle) <= eps * (1 + 1e-8)
        oracle = np.abs(oracle).max()
        for config in (sv.SolverConfig(), sv.SolverConfig(tol=1e-10)):
            S, _, trace = sv.infer_shift(V, cset, eps, objective="linf", config=config)
            assert trace.status == "certified" and trace.kkt_residual <= config.tol
            assert cset.violation(S) <= 1e-9 and ball_distance(V, S) <= eps * (1 + 1e-9)
            assert np.abs(S).max() == pytest.approx(oracle, rel=1e-6)
            assert np.abs(S).max() <= oracle * (1 + config.tol)


def diffusion_basis(n, seed):
    G = sim.gen_er_graph(n, 0.3, rng=seed, require_connected=True)
    return G, gc.eigendecompose(sim.diffusion_covariance(G, [1.0, 0.5, 0.2]))


class TestSpectralLP:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_recovery_n50_default_config(self, seed):
        G, basis = diffusion_basis(50, seed)
        S, _, trace = sv.infer_shift(basis.vecs, sv.ShiftConstraintSet(), 0.0)
        assert trace.converged
        assert scale_aligned_error(S, G.data) <= 1e-8

    def test_matches_tight_admm_cross_check(self):
        # independent of the LP formulation: one HiGHS call over the
        # entries with every row present, and the eps > 0 engine at eps =
        # 1e-6, where supports holding the true shift are singular; the
        # eps = 0 point is feasible there, so no norm may exceed its own,
        # and the optima lie within a few eps of it
        cset = sv.ShiftConstraintSet()
        for seed in range(10):
            _, basis = diffusion_basis(10, seed)
            S, _, trace = sv.infer_shift(basis.vecs, cset, 0.0)
            assert trace.status == "exact"
            assert np.abs(S - dense_lp_oracle(basis.vecs, "l1")[1]).max() <= 1e-8
            for objective, norm in NORMS.items():
                S_eps, _, trace_eps = sv.infer_shift(basis.vecs, cset, 1e-6,
                                                     objective=objective)
                assert trace_eps.status == "certified"
                assert norm(S_eps) <= norm(S) * (1 + 1e-9)
                assert np.abs(S - S_eps).max() <= 1e-5

    @pytest.mark.parametrize("cset", list(SHIFT_SETS.values()))
    def test_linf_objective_exact(self, cset):
        for seed in range(5):
            G, _ = diffusion_basis(10, 40 + seed)
            basis = gc.eigendecompose(sim.diffusion_covariance(G.data, [1.0, 0.5]))
            V = basis.vecs
            S, _, trace = sv.infer_shift(V, cset, 0.0, objective="linf")
            S_l1, _, _ = sv.infer_shift(V, cset, 0.0)
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
        V = gc.eigendecompose(sim.diffusion_covariance(G.data, [1.0, 0.5, 0.2])).vecs
        if basis == "random":  # almost never fits the set: Infeasible
            V = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
        V = V[:, :{"full": n, "half": n // 2, "none": 0, "random": n}[basis]]
        res, S_ref = dense_lp_oracle(V, objective)
        assert res.status in (0, 2)
        if res.status == 2:
            with pytest.raises(Infeasible):
                sv.infer_shift(V, cset, 0.0, objective=objective)
            return
        S, _, trace = sv.infer_shift(V, cset, 0.0, objective=objective)
        assert trace.converged
        assert cset.violation(S) <= 1e-9
        assert abs(trace.objective[-1] - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
        pairs = n * (n - 1) // 2
        full = pairs if objective == "l1" else 2 * pairs
        assert trace.notes["lp_rows_full"] == full
        # the l1 solves also hold the implied row ||S||_1 >= 0
        assert trace.notes["lp_rows"] <= full + 1
        if V.shape[1] == n and np.linalg.matrix_rank(V * V, tol=1e-8) == n - 1:
            # the zero diagonal leaves one ray of eigenvalues: the set
            # meets the span in one point, the optimum is unique (V o V
            # has largest singular value 1; below 1e-8 a singular value
            # is rounding, as in bipartite graphs' symmetric spectra)
            np.testing.assert_allclose(S, S_ref, rtol=0,
                                       atol=1e-9 * np.abs(S_ref).max())
            # and the equality rows fix it: no LP solve
            assert trace.notes["lp_rounds"] == 0

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
        S, _, trace = sv.infer_shift(np.zeros((n, 0)), sv.ShiftConstraintSet(), 0.0)
        assert trace.converged and trace.notes["lp_rounds"] == len(solves) > 1
        assert trace.iters_used == sum(nit for _, nit in solves)
        assert trace.notes["lp_rows"] == solves[-1][0]
        # the sparsest member: one edge of weight one at the first vertex
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-9)
        assert sv.ShiftConstraintSet().violation(S) <= 1e-12

    @pytest.mark.parametrize("name", list(SHIFT_SETS))
    @pytest.mark.parametrize("objective", ["l1", "linf"])
    def test_exact_full_basis_makes_no_lp_call(self, lp_calls, name, objective):
        # the zero diagonal and the scale row leave one candidate point
        cset = SHIFT_SETS[name]
        for seed in range(3):
            _, basis = diffusion_basis(12, 60 + seed)
            S, lam, trace = sv.infer_shift(basis.vecs, cset, 0.0, objective=objective)
            assert lp_calls == []
            assert trace.converged and trace.iters_used == 0
            assert trace.notes["lp_rounds"] == trace.notes["lp_rows"] == 0
            assert cset.violation(S) <= 1e-12
            res, S_ref = dense_lp_oracle(basis.vecs, objective)
            assert trace.objective[-1] == pytest.approx(res.fun, rel=1e-9)
            np.testing.assert_allclose(S, S_ref, rtol=0, atol=1e-8 * np.abs(S_ref).max())
            np.testing.assert_allclose(basis.vecs @ np.diag(lam) @ basis.vecs.T, S,
                                       rtol=0, atol=1e-9 * np.abs(S).max())

    def test_random_full_basis_infeasible_without_lp_call(self, lp_calls):
        for seed in range(3):
            V = np.linalg.qr(np.random.default_rng(seed).standard_normal((10, 10)))[0]
            for objective in ("l1", "linf", "frobenius"):
                with pytest.raises(Infeasible):
                    sv.infer_shift(V, sv.ShiftConstraintSet(), 0.0, objective=objective)
        assert lp_calls == []

    @pytest.mark.parametrize("k", [0, 5])
    def test_partial_basis_calls_highs(self, lp_calls, k):
        # K = 0 and K = N / 2 leave free directions for the sign rows
        _, basis = diffusion_basis(10, 62)
        S, _, trace = sv.infer_shift(basis.vecs[:, 10 - k:], sv.ShiftConstraintSet(), 0.0)
        assert trace.converged and trace.notes["lp_rounds"] == len(lp_calls) >= 1
        assert sv.ShiftConstraintSet().violation(S) <= 1e-9

    def test_rows_below_the_full_lp_at_n40(self):
        # without its 6 smallest-eigenvalue eigenvectors the exact basis
        # leaves free directions: HiGHS runs, on a fraction of the rows
        G, basis = diffusion_basis(40, 1)
        S, _, trace = sv.infer_shift(basis.vecs[:, 6:], sv.ShiftConstraintSet(), 0.0)
        assert trace.converged and trace.notes["lp_rounds"] >= 2
        assert trace.notes["lp_rows"] < 40 * 39 // 2
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
        assert trace.kkt_residual <= 1e-6 * trace.notes["kkt_scale"]

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
            assert trace.kkt_residual <= 1e-6 * trace.notes["kkt_scale"]


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


@given(solver=hst.sampled_from(["lasso", "logdet", "engine"]),
       seed=hst.integers(0, 10_000), n=hst.integers(2, 12),
       tol=hst.sampled_from([1e-4, 1e-7, 1e-10]))
@settings(max_examples=90)
def test_converged_solves_report_their_kkt_bound(solver, seed, n, tol):
    # each kernel's documented bound on the KKT residual of a converged solve
    rng = np.random.default_rng(seed)
    config = sv.SolverConfig(tol=tol)
    if solver == "lasso":
        A = rng.standard_normal((3 * n, n))
        R = rng.standard_normal((2, 3 * n)) @ A
        G = A.T @ A
        B, trace = sv.lasso_cd_gram(G, R, 0.3 * np.abs(R).max(), config)
        off = np.abs(G).sum(axis=1) - np.abs(np.diag(G))
        bound = tol * max(1.0, np.abs(B).max()) * off.max()
        slack = 1e-12 * np.abs(R).max()
    elif solver == "logdet":
        X = rng.standard_normal((n, 4 * n))
        _, trace = stn.graphical_lasso(X, 0.1, config=config)
        bound, slack = tol, 0.0
    else:  # the quadratic degree term, one round (beta > 0) or many (beta = 0)
        X = rng.standard_normal((n, 5))
        Z = _sq_distances(X)
        weight, beta = rng.uniform(0.1, 3.0), rng.choice([0.0, rng.uniform(0.1, 2.0)])
        scale_sum = None if rng.random() < 0.5 else n / 2.0
        W, trace = sv.primal_dual_graph(Z, sv.DegreeTerm("quadratic", weight), beta,
                                        config, scale_sum=scale_sum)
        last_round = 2.0 * (2.0 if scale_sum else 1.0) * weight * tol * W.sum(axis=1).max()
        bound = max(tol * trace.notes["kkt_scale"], last_round)
        slack = 1e-12 * trace.notes["kkt_scale"]
    assume(trace.converged)
    assert trace.status == "converged"
    assert trace.kkt_residual <= bound + slack
