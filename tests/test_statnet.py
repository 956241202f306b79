import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import minimize

import glkit.graphcore as gc
import glkit.netdyn as nd
import glkit.simulate as sim
import glkit.solvers as sv
import glkit.statnet as st
from glkit.errors import BadParameter, NoMLE, SingularCovariance, TooFewSamples
from glkit.solvers import SolverConfig


def chain_precision(n, rho=0.4):
    T = np.eye(n)
    for i in range(n - 1):
        T[i, i + 1] = T[i + 1, i] = -rho
    return T


def _lgmrf_objective(S, lam, theta):
    sign, logdet = np.linalg.slogdet(theta)
    return np.inf if sign <= 0 else \
        -logdet + float((S * theta).sum()) + lam * float(np.abs(theta).sum())


def _lgmrf_reference(S, lam):
    """Independent L-BFGS-B solve of the Laplacian GMRF objective over
    (w, gamma), gradient from a dense inverse."""
    n = S.shape[0]
    iu, ju = np.triu_indices(n, 1)

    def theta(x):
        W = np.zeros((n, n))
        W[iu, ju] = W[ju, iu] = x[:-1]
        return np.diag(W.sum(axis=1) + x[-1]) - W

    def fun(x):
        T = theta(x)
        f = _lgmrf_objective(S, lam, T)
        if not np.isfinite(f):
            return 1e300, np.zeros_like(x)
        M = S - np.linalg.inv(T)
        d = np.diag(M)
        return f, np.append(d[iu] + d[ju] - 2.0 * M[iu, ju] + 4.0 * lam,
                            d.sum() + n * lam)

    x0 = np.append(np.zeros(iu.size), n / np.trace(S))
    res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * iu.size + [(1e-12, None)],
                   options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12})
    return float(res.fun)


class TestSampleCovariance:
    def test_single_column_outer_product(self):
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(st.sample_covariance(x[:, None]),
                                   np.outer(x, x))

    def test_two_point_centered(self):
        X = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(st.sample_covariance(X, centered=True),
                                   np.diag([1.0, 0.0, 0.0]))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        Sigma = M @ M.T + np.eye(4)
        X = sim.sample_gmrf(np.linalg.inv(Sigma), 100_000, rng=1)
        est = st.sample_covariance(X)
        assert np.abs(est - Sigma).max() <= 0.02 * np.abs(Sigma).max()

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            st.sample_covariance(np.ones((3, 1)), centered=True)


class TestBenjaminiHochberg:
    def test_worked_example(self):
        # thresholds i*q/m for q = 0.05, m = 4: 0.0125, 0.025, 0.0375, 0.05
        reject = st.bh_select([0.001, 0.02, 0.04, 0.3], q=0.05)
        np.testing.assert_array_equal(reject, [True, True, False, False])

    def test_rejects_a_prefix_of_sorted_pvalues(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.random(rng.integers(3, 40))
            reject = st.bh_select(p, q=0.2)
            order = np.argsort(p, kind="stable")
            flags = reject[order]
            if flags.any():
                last = np.nonzero(flags)[0][-1]
                assert flags[: last + 1].all()

    def test_nothing_rejected_when_all_large(self):
        assert not st.bh_select([0.5, 0.9, 0.7], q=0.1).any()


class TestFisherPvalues:
    # _fisher_pvalues takes erfc from the standard library; scipy's cephes
    # erfc is the reference here only

    def test_matches_scipy_erfc(self):
        from scipy.special import erfc

        null_var = 0.005  # erfc argument atanh(rho) / 0.1
        t = np.linspace(0.0, 2.6, 20001)
        z, pvals, sat = st._fisher_pvalues(np.tanh(t), null_var)
        assert not sat.any()
        x = np.abs(z) / np.sqrt(2.0 * null_var)
        assert x.min() == 0.0 and 25.9 < x.max() <= 26.0
        ref = erfc(x)
        assert ref.min() > np.finfo(float).tiny  # normal floats throughout
        np.testing.assert_allclose(pvals, ref, rtol=1e-13, atol=0.0)

    def test_saturated_and_empty(self):
        z, pvals, sat = st._fisher_pvalues(np.array([1.0, -1.0, 0.0]), 0.1)
        np.testing.assert_array_equal(z, [np.inf, -np.inf, 0.0])
        np.testing.assert_array_equal(pvals, [0.0, 0.0, 1.0])
        z, pvals, sat = st._fisher_pvalues(np.zeros(0), 0.1)
        assert z.shape == pvals.shape == sat.shape == (0,)

    @given(hst.sampled_from(["corr", "pcorr"]), hst.integers(10, 60),
           hst.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_bh_rejects_match_scipy_pvalues(self, method, n, seed):
        from scipy.special import erfc

        rng = np.random.default_rng(seed)
        p = 3 * n
        A = np.eye(n) + np.triu(rng.random((n, n)) < 0.1, 1) * rng.uniform(0.2, 0.8, (n, n))
        X = A @ rng.standard_normal((n, p))
        if method == "corr":
            table, _ = st.correlation_network(X, q=0.2)
            null_var = 1.0 / (p - 3)
        else:
            table, _ = st.partial_correlation_network(X, q=0.2)
            null_var = 1.0 / (p - n - 1)
        ref = erfc(np.abs(table.statistic) / np.sqrt(2.0 * null_var))
        np.testing.assert_allclose(table.p_value, ref, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(table.reject, st.bh_select(ref, 0.2))


class TestCorrelationNetwork:
    def test_duplicated_rows_saturate(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(60)
        X = np.vstack([base, base, rng.standard_normal(60)])
        table, W = st.correlation_network(X, q=0.05)
        assert W.data[0, 1] == pytest.approx(1.0)
        assert (0, 1) in table.flags["saturated_pairs"]
        hit = np.flatnonzero((table.i == 0) & (table.j == 1))[0]
        assert table.p_value[hit] == 0.0 and table.reject[hit]

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            st.correlation_network(np.ones((3, 3)), q=0.1)

    def test_table_columns_read_only_and_p_values_checked(self):
        X = np.random.default_rng(5).standard_normal((4, 30))
        table, _ = st.correlation_network(X, q=0.1)
        for col in (table.i, table.j, table.statistic, table.p_value, table.reject):
            assert col.shape == (6,)
            with pytest.raises(ValueError):
                col[0] = 0
        p = np.array([0.5, 1.5])
        with pytest.raises(BadParameter, match="p-values"):
            st.TestTable([0, 0], [1, 2], np.zeros(2), p, np.zeros(2, bool),
                         "correlation", 0.1)
        p[1] = 0.25
        st.TestTable([0, 0], [1, 2], np.zeros(2), p, np.zeros(2, bool),
                     "correlation", 0.1)
        p[0] = 0.75  # the caller's array stays writable

    def test_scale_invariance_of_decisions(self):
        rng = np.random.default_rng(4)
        X = sim.sample_gmrf(chain_precision(6), 300, rng=5).data
        t1, _ = st.correlation_network(X, q=0.1)
        scales = rng.uniform(0.3, 5.0, 6)
        t2, _ = st.correlation_network(X * scales[:, None], q=0.1)
        assert t1.reject.tolist() == t2.reject.tolist()

    def test_null_data_rarely_rejects(self):
        # under the full null any rejection is a false discovery, so the
        # empirical FDR approximates Pr(R > 0), which step-up keeps near q
        fdr = []
        for seed in range(200):
            X = sim.sample_gmrf(np.eye(8), 200, rng=100 + seed).data
            table, _ = st.correlation_network(X, q=0.1)
            r = table.reject.sum()
            fdr.append(0.0 if r == 0 else 1.0)
        assert np.mean(fdr) <= 0.16  # q plus three sigmas of 200-run noise


class TestPartialCorrelation:
    def test_population_chain_values(self):
        T = chain_precision(3)
        rho = st.population_partial_correlations(T)
        assert rho[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert rho[0, 1] == pytest.approx(0.4)

    def test_diagonal_precision_gives_empty_graph(self):
        rho = st.population_partial_correlations(np.diag([2.0, 1.0, 0.5]))
        off = rho - np.diag(np.diag(rho))
        assert np.abs(off).max() == 0.0

    def test_bijection_with_schur_complement_oracle(self):
        # conditional covariance route, independent of the matrix-inverse
        # formula being tested
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            M = rng.standard_normal((n, n))
            Theta = M @ M.T + n * np.eye(n)
            mask = rng.random((n, n)) < 0.4
            Theta[mask & mask.T] = 0.0
            Theta = 0.5 * (Theta + Theta.T)
            np.fill_diagonal(Theta, np.abs(Theta).sum(axis=1) + 1.0)
            Sigma = np.linalg.inv(Theta)
            rho = st.population_partial_correlations(Theta)
            for i in range(n):
                for j in range(i + 1, n):
                    rest = [k for k in range(n) if k not in (i, j)]
                    A = Sigma[np.ix_([i, j], [i, j])]
                    B = Sigma[np.ix_([i, j], rest)]
                    D = Sigma[np.ix_(rest, rest)]
                    C = A - B @ np.linalg.solve(D, B.T)
                    oracle = C[0, 1] / np.sqrt(C[0, 0] * C[1, 1])
                    assert rho[i, j] == pytest.approx(oracle, abs=1e-10)

    def test_population_recovery_from_samples(self):
        X = sim.sample_gmrf(chain_precision(5), 20_000, rng=7)
        table, W = st.partial_correlation_network(X, q=0.01)
        edges = set(zip(table.i[table.reject].tolist(),
                        table.j[table.reject].tolist()))
        assert edges == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_singular_needs_ridge(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 20))
        X[5] = X[4]  # rank deficient
        with pytest.raises(SingularCovariance):
            st.partial_correlation_network(X, q=0.1)
        table, _ = st.partial_correlation_network(X, q=0.1, ridge=True)
        assert len(table.i) == len(table.p_value) == 15

    def test_needs_more_samples_than_nodes(self):
        with pytest.raises(TooFewSamples):
            st.partial_correlation_network(np.random.default_rng(9)
                                           .standard_normal((6, 6)), q=0.1)


class TestGraphicalLasso:
    def test_unpenalized_is_inverse(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((5, 5))
        Sigma = M @ M.T / 5 + np.eye(5)
        theta, _ = st.graphical_lasso(Sigma, 0.0)
        inv = np.linalg.inv(Sigma)
        assert np.linalg.norm(theta - inv) / np.linalg.norm(inv) <= 1e-5

    def test_large_penalty_diagonal_solution(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4))
        Sigma = M @ M.T / 4 + np.eye(4)
        off = np.abs(Sigma - np.diag(np.diag(Sigma)))
        theta, _ = st.graphical_lasso(Sigma, off.max() * 1.05,
                                      penalize_diagonal=False)
        offT = theta - np.diag(np.diag(theta))
        assert np.abs(offT).max() <= 1e-6
        np.testing.assert_allclose(np.diag(theta), 1.0 / np.diag(Sigma),
                                   atol=1e-6)

    def test_kkt_residual(self):
        rng = np.random.default_rng(12)
        X = sim.sample_gmrf(chain_precision(6), 500, rng=13)
        lam = 0.1
        theta, _ = st.graphical_lasso(X, lam)
        grad = np.linalg.inv(theta) - st.sample_covariance(X)
        scale = max(1.0, np.abs(st.sample_covariance(X)).max())
        mask = ~np.eye(6, dtype=bool)
        zero = np.abs(theta) <= 1e-8
        assert np.abs(grad[mask & zero]).max(initial=0.0) <= lam + 1e-5 * scale
        live = mask & ~zero
        if live.any():
            resid = grad[live] - lam * np.sign(theta[live])
            assert np.abs(resid).max() <= 1e-5 * scale

    def test_tight_tol_unpenalized_matches_inverse(self):
        X = sim.sample_gmrf(chain_precision(50), 2000, rng=21)
        S = st.sample_covariance(X)
        theta, trace = st.graphical_lasso(S, 0.0, config=SolverConfig(tol=1e-12))
        inv = np.linalg.inv(S)
        assert trace.converged
        assert np.abs(theta - inv).max() <= 1e-8 * max(1.0, np.abs(inv).max())

    def test_honours_tol(self):
        n = 30
        X = sim.sample_gmrf(chain_precision(n), 1000, rng=22)
        lam = st.auto_lambda(n, 1000)
        iters = []
        for tol in (1e-10, 1e-7):
            theta, trace = st.graphical_lasso(X, lam, config=SolverConfig(tol=tol))
            assert trace.status == "converged"
            assert trace.kkt_residual <= tol
            iters.append(trace.iters_used)
        assert iters[1] < iters[0]

    def test_singular_unpenalized_has_no_mle(self):
        X = np.ones((4, 2))
        with pytest.raises(NoMLE):
            st.graphical_lasso(X, 0.0)

    def test_zero_variance_vertex_has_no_mle(self):
        # an unpenalized theta_22 grows without bound: -log t + 0 * t
        X = np.random.default_rng(23).standard_normal((5, 200))
        X[2] = 0.0
        with pytest.raises(NoMLE, match="vertex 2"):
            st.graphical_lasso(X, 0.1)
        theta, trace = st.graphical_lasso(X, 0.1, penalize_diagonal=True)
        assert trace.converged
        assert theta[2, 2] == pytest.approx(1.0 / 0.1, rel=1e-6)

    def test_cross_block_entries_are_exactly_zero(self):
        # |S_ij| <= lam across two independent blocks: the solution is
        # block diagonal (Mazumder & Hastie, JMLR 2012), to the bit
        rng = np.random.default_rng(24)
        X = np.vstack([sim.sample_gmrf(chain_precision(4), 2000, rng=rng).data,
                       sim.sample_gmrf(chain_precision(4), 2000, rng=rng).data])
        S = st.sample_covariance(X)
        lam = 1.05 * np.abs(S[:4, 4:]).max()
        assert lam < np.abs(S[:4, :4] - np.diag(np.diag(S[:4, :4]))).max()
        theta, trace = st.graphical_lasso(S, lam)
        assert trace.converged
        assert np.all(theta[:4, 4:] == 0.0) and np.all(theta[4:, :4] == 0.0)
        assert np.count_nonzero(theta[:4, :4] - np.diag(np.diag(theta[:4, :4]))) > 0

    @given(n=hst.integers(2, 10), extra=hst.integers(2, 40),
           lam_factor=hst.floats(0.1, 2.0), log_c=hst.floats(-4.0, 4.0),
           penalize_diagonal=hst.booleans(), seed=hst.integers(0, 2 ** 32 - 1))
    def test_properties_and_scale_equivariance(self, n, extra, lam_factor, log_c,
                                               penalize_diagonal, seed):
        p = n + extra
        S = st.sample_covariance(np.random.default_rng(seed).standard_normal((n, p)))
        lam = lam_factor * st.auto_lambda(n, p)
        c = 10.0 ** log_c
        config = SolverConfig()
        theta, trace = st.graphical_lasso(S, lam, penalize_diagonal, config)
        assert trace.converged
        assert np.array_equal(theta, theta.T)
        assert np.linalg.eigvalsh(theta).min() > 0
        # KKT residual recomputed from the returned estimate
        W = np.full((n, n), lam)
        if not penalize_diagonal:
            np.fill_diagonal(W, 0.0)
        G = S - np.linalg.inv(theta)
        s = np.abs(theta).max()
        kkt = np.abs(theta - sv.soft_threshold(theta - s * s * G, s * s * W)).max() / s
        assert kkt <= 2.0 * config.tol
        zero = theta == 0.0
        assert np.all(np.abs(G[zero]) <= lam * (1.0 + 1e-6))
        theta_c, trace_c = st.graphical_lasso(c * S, c * lam, penalize_diagonal, config)
        assert trace_c.converged
        assert np.abs(c * theta_c - theta).max() <= 1e-5 * np.abs(theta).max()

    def test_positive_definite_and_monotone(self):
        X = sim.sample_gmrf(chain_precision(8), 400, rng=14)
        theta, trace = st.graphical_lasso(X, 0.05)
        assert np.linalg.eigvalsh(theta).min() > 0
        objs = np.array(trace.objective)
        drift = np.diff(objs)
        assert drift.max() <= 1e-4 * max(1.0, np.abs(objs).max())

    def test_chain_support_fscore(self):
        lam = st.auto_lambda(10, 5000)
        fs = []
        for seed in range(5):
            X = sim.sample_gmrf(chain_precision(10), 5000, rng=seed)
            theta, _ = st.graphical_lasso(X, lam)
            est = np.abs(theta - np.diag(np.diag(theta))) > lam / 2
            true = np.abs(chain_precision(10) - np.diag(np.diag(
                chain_precision(10)))) > 0
            tp = (est & true).sum()
            fp = (est & ~true).sum()
            fn = (~est & true).sum()
            fs.append(2 * tp / max(2 * tp + fp + fn, 1))
        assert np.median(fs) >= 0.9


class TestLaplacianGmrf:
    def test_capped_solves_warn(self):
        X = sim.sample_gmrf(chain_precision(6), 500, rng=13)
        config = SolverConfig(max_iters=2)
        with pytest.warns(UserWarning, match="2-iteration cap"):
            _, _, trace = st.laplacian_gmrf(X, 0.1, config)
        assert not trace.converged and trace.iters_used == 2
        assert trace.status == "max_iters" and trace.kkt_residual > config.tol
        with pytest.warns(UserWarning, match="2-iteration cap"):
            _, trace = st.graphical_lasso(X, 0.1, config=config)
        assert not trace.converged and trace.iters_used == 2
        assert trace.status == "max_iters"

    def test_identity_covariance(self):
        L, gamma, _ = st.laplacian_gmrf(np.eye(4), 0.0)
        assert np.abs(L.data).max() <= 1e-6
        assert gamma == pytest.approx(1.0, abs=1e-6)

    def test_recovers_loaded_path(self):
        import glkit.graphcore as gc
        L0 = gc.build_shift([(0, 1, 1.0)], 2, gc.ShiftKind.LAPLACIAN)
        theta = L0.data + 0.5 * np.eye(2)
        X = sim.sample_gmrf(theta, 100_000, rng=15)
        L, gamma, _ = st.laplacian_gmrf(X, 0.0)
        assert np.abs(L.data - L0.data).max() <= 0.05
        assert gamma == pytest.approx(0.5, abs=0.05)

    def test_large_penalty_kills_edges(self):
        X = sim.sample_gmrf(chain_precision(5), 2000, rng=16)
        L, gamma, trace = st.laplacian_gmrf(X, 50.0)
        assert np.abs(L.data).max() <= 1e-6
        assert trace.converged
        # with no edges the load solves -N/gamma + trace(S) + N lam = 0
        S = st.sample_covariance(X)
        assert gamma == pytest.approx(5 / (np.trace(S) + 50.0 * 5), rel=1e-8)

    def test_converges_on_er50_with_default_config(self):
        G = sim.gen_er_graph(50, 0.06, rng=30)
        theta = gc.laplacian_from_weights(G.weights()).data + 0.5 * np.eye(50)
        X = sim.sample_gmrf(theta, 2000, rng=31)
        lam = st.auto_lambda(50, 2000)
        config = SolverConfig()
        L, gamma, trace = st.laplacian_gmrf(X, lam, config)
        assert trace.converged
        # KKT residual recomputed from the returned estimate
        S = st.sample_covariance(X)
        iu, ju = np.triu_indices(50, 1)
        M = S - np.linalg.inv(L.data + gamma * np.eye(50))
        d = np.diag(M)
        x = np.append(-L.data[iu, ju], gamma)
        g = np.append(d[iu] + d[ju] - 2.0 * M[iu, ju] + 4.0 * lam,
                      d.sum() + 50 * lam)
        s = x.max()
        kkt = np.abs(x - np.maximum(x - s * s * g, 0.0)).max() / s
        assert trace.kkt_residual <= config.tol
        assert kkt <= 2.0 * config.tol

    def test_small_variance_solves_to_the_mle(self):
        # at variance 1e-4 the start (w = 0) has a gradient of order 1e-4
        # in data units; the scale-free residual must still reject it
        S = 1e-4 * np.array([[1.0, 0.5], [0.5, 1.0]])
        L, gamma, trace = st.laplacian_gmrf(S, 0.0)
        assert trace.converged
        # Theta = inv(S): gamma = 1 / 1.5e-4, gamma + 2 w = 1 / 0.5e-4
        assert gamma == pytest.approx(2e4 / 3, rel=1e-6)
        assert -L.data[0, 1] == pytest.approx(2e4 / 3, rel=1e-6)

    def test_tiny_variance_returns_a_valid_laplacian(self):
        # precision near 1e10: the returned L's row sums round to about
        # 1e-6 in absolute terms, within the bound relative to its entries
        rng = np.random.default_rng(33)
        theta = gc.laplacian_from_weights(
            sim.gen_er_graph(8, 0.5, rng=rng).weights()).data + 0.5 * np.eye(8)
        X = 1e-5 * sim.sample_gmrf(theta, 500, rng).data
        L, gamma, trace = st.laplacian_gmrf(X, 0.0)
        assert trace.converged
        assert np.abs(L.data).max() > 1e9
        assert gamma > 0

    def test_matches_lbfgsb_reference(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            n = int(rng.integers(3, 21))
            G = sim.gen_er_graph(n, 0.3, rng=rng)
            theta = gc.laplacian_from_weights(G.weights()).data + 0.5 * np.eye(n)
            S = st.sample_covariance(sim.sample_gmrf(theta, 500, rng))
            lam = st.auto_lambda(n, 500) * rng.uniform(0.2, 2.0)
            L, gamma, _ = st.laplacian_gmrf(S, lam)
            ref = _lgmrf_reference(S, lam)
            mine = _lgmrf_objective(S, lam, L.data + gamma * np.eye(n))
            assert mine <= ref + 1e-9 * max(1.0, abs(ref))

    @given(n=hst.integers(2, 10), extra=hst.integers(2, 40),
           lam_factor=hst.floats(0.1, 2.0), log_c=hst.floats(-4.0, 4.0),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_properties_and_scale_equivariance(self, n, extra, lam_factor, log_c, seed):
        p = n + extra
        S = st.sample_covariance(np.random.default_rng(seed).standard_normal((n, p)))
        lam = lam_factor * st.auto_lambda(n, p)
        c = 10.0 ** log_c
        config = SolverConfig()
        L, gamma, trace = st.laplacian_gmrf(S, lam, config)
        assert trace.converged
        M = L.data
        scale = max(1.0, np.abs(M).max())
        assert np.abs(M - M.T).max() <= 1e-12 * scale
        assert np.abs(M.sum(axis=1)).max() <= 1e-9 * scale
        assert (M - np.diag(np.diag(M))).max() <= 0.0
        assert gamma > 0
        Lc, gamma_c, trace_c = st.laplacian_gmrf(c * S, c * lam, config)
        assert trace_c.converged
        assert np.abs(c * Lc.data - M).max() <= 1e-5 * max(np.abs(M).max(), gamma)
        assert c * gamma_c == pytest.approx(gamma, rel=1e-5)

    def test_beats_oracle_grid_on_small_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            n = 4
            M = rng.standard_normal((n, n))
            Sigma = M @ M.T / n + np.eye(n)
            lam = 0.1
            L, gamma, trace = st.laplacian_gmrf(Sigma, lam)
            theta = L.data + gamma * np.eye(n)
            sign, logdet = np.linalg.slogdet(theta)
            best = logdet - (Sigma * theta).sum() - lam * np.abs(theta).sum()
            # feasible competitors: random Laplacians and diagonal loads
            for _ in range(200):
                iu, ju = np.triu_indices(n, 1)
                w = np.where(rng.random(iu.size) < 0.6,
                             rng.uniform(0.0, 1.5, iu.size), 0.0)
                W = np.zeros((n, n))
                W[iu, ju] = w
                W[ju, iu] = w
                Lc = np.diag(W.sum(axis=1)) - W
                g = rng.uniform(0.05, 2.0)
                cand = Lc + g * np.eye(n)
                s, ld = np.linalg.slogdet(cand)
                if s <= 0:
                    continue
                obj = ld - (Sigma * cand).sum() - lam * np.abs(cand).sum()
                assert best >= obj - 1e-5


class TestNeighborhoodLasso:
    def test_null_graph_stays_mostly_empty(self):
        false_rates = []
        for seed in range(10):
            X = sim.sample_gmrf(np.eye(8), 500, rng=20 + seed).data
            lam = X.shape[1] * st.auto_lambda(8, 500)
            W, _, _ = st.neighborhood_lasso(X, lam, "or")
            iu, ju = np.triu_indices(8, 1)
            false_rates.append(np.mean(W.data[iu, ju] > 0))
        assert np.mean(false_rates) <= 0.05

    def test_unpenalized_is_complete(self):
        X = sim.sample_gmrf(np.eye(5), 200, rng=30).data
        W, _, _ = st.neighborhood_lasso(X, 0.0, "or")
        iu, ju = np.triu_indices(5, 1)
        assert np.all(W.data[iu, ju] == 1.0)

    def test_and_subset_of_or(self):
        X = sim.sample_gmrf(chain_precision(7), 400, rng=31).data
        lam = 0.5 * X.shape[1] * st.auto_lambda(7, 400)
        W_or, _, _ = st.neighborhood_lasso(X, lam, "or")
        W_and, _, _ = st.neighborhood_lasso(X, lam, "and")
        assert np.all((W_and.data > 0) <= (W_or.data > 0))

    def test_lasso_learners_return_their_trace(self):
        # both once dropped the lasso's trace: a capped solve only warned
        X = sim.sample_gmrf(chain_precision(6), 300, rng=32).data
        G = X @ X.T
        _, ref = sv.lasso_cd_gram(G, G, 30.0, const_term=0.5 * np.diag(G),
                                  mask=~np.eye(6, dtype=bool))
        _, _, trace = st.neighborhood_lasso(X, 30.0)
        assert trace.status == "converged" and trace.iters_used == ref.iters_used
        assert trace.kkt_residual == ref.kkt_residual
        one = SolverConfig(max_iters=1)
        with pytest.warns(UserWarning, match="1-sweep cap on 6 of 6"):
            _, _, trace = st.neighborhood_lasso(X, 30.0, "or", one)
        assert trace.status == "max_iters" and trace.iters_used == 6
        _, _, trace = nd.svarm_fit(X, 2, 40.0)
        assert trace.status == "converged" and trace.iters_used >= 6
        with pytest.warns(UserWarning, match="1-sweep cap on 6 of 6"):
            _, _, trace = nd.svarm_fit(X, 2, 40.0, "or", one)
        assert trace.status == "max_iters" and trace.iters_used == 6

    def test_parallel_matches_serial(self):
        # the shared-Gram learners against per-node lasso_cd solves on the
        # old per-node submatrix layout (others, then the node's own input)
        def check(B, ref):
            np.testing.assert_array_equal(B != 0, ref != 0)
            assert np.all(np.abs(B - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

        cfg = SolverConfig()
        X = sim.sample_gmrf(chain_precision(6), 300, rng=32).data
        _, B, _ = st.neighborhood_lasso(X, 30.0, "or", cfg)
        ref = np.zeros((6, 6))
        for i in range(6):
            others = np.delete(np.arange(6), i)
            ref[i, others] = sv.lasso_cd(X[others].T, X[i], 30.0, cfg)[0]
        check(B, ref)

        rng = np.random.default_rng(32)
        n, T = 8, 120
        Wt = sim.gen_er_digraph(n, 0.3, radius=0.5, rng=rng).data
        U = rng.standard_normal((n, T))
        Xs = sim.gen_sem(Wt, np.ones(n), U, 0.01, rng).data
        data = nd.CascadeData(Xs, U)
        W, omega, _ = nd.sem_fit(data, 20.0, cfg)
        ref = np.zeros((n, n + 1))
        for i in range(n):
            others = np.delete(np.arange(n), i)
            beta, _ = sv.lasso_cd(np.vstack([Xs[others], U[i]]).T, Xs[i], 10.0, cfg,
                                  penalty_weights=np.r_[np.ones(n - 1), 0.0])
            ref[i, others], ref[i, n] = beta[:-1], beta[-1]
        check(np.column_stack([W.data, omega]), ref)

        lags, lam = 2, 40.0
        _, Ws, _ = nd.svarm_fit(Xs, lags, lam, "or", cfg)
        A = np.vstack([Xs[:, lags - lag: T - lag] for lag in range(1, lags + 1)]).T
        ref = np.array([sv.lasso_cd(A, Xs[i, lags:], lam, cfg)[0] for i in range(n)])
        check(np.hstack(Ws), ref)

        # the tracker warm-starts every epoch from the previous one, so its
        # reference chains per-node Gram solves over the same epochs
        cascades = nd.CascadeData(rng.standard_normal((n, 10, 6)),
                                  rng.standard_normal((n, 6)))
        traj = nd.dynamic_sem_track(cascades, 0.9, 8.0, cfg)
        G = np.zeros((2 * n, 2 * n))
        betas = [None] * n
        for t in range(cascades.t):
            At = np.vstack([cascades.X[:, t], cascades.U[:, t]])
            G = 0.9 * G + At @ At.T
            ref = np.zeros((n, n))
            for i in range(n):
                others = np.delete(np.arange(n), i)
                idx = np.r_[others, n + i]
                betas[i], _ = sv.lasso_cd_gram(
                    G[np.ix_(idx, idx)], G[idx, i], 4.0, cfg,
                    penalty_weights=np.r_[np.ones(n - 1), 0.0], beta0=betas[i])
                ref[i, others] = betas[i][:-1]
        check(traj.weights[-1], ref)

    def test_agreement_with_glasso_on_chain(self):
        X = sim.sample_gmrf(chain_precision(10), 5000, rng=33).data
        lam_g = st.auto_lambda(10, 5000)
        theta, _ = st.graphical_lasso(X, lam_g)
        gl = np.abs(theta - np.diag(np.diag(theta))) > lam_g / 2
        lam_n = X.shape[1] * lam_g
        iu = np.triu_indices(10, 1)
        for rule in ("or", "and"):
            W, _, _ = st.neighborhood_lasso(X, lam_n, rule)
            agree = np.mean(gl[iu] == (W.data[iu] > 0))
            assert agree >= 0.8
