import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

import glkit.netdyn as nd
import glkit.simulate as sim
from glkit.errors import BadDimension, BadParameter, TooFewSamples
from glkit.solvers import SolverConfig


def sem_dataset(W, T, rng, noise=0.0, C=1):
    n = W.shape[0]
    U = rng.standard_normal((n, T, C))
    X = np.zeros((n, T, C))
    for t in range(T):
        for c in range(C):
            eps = noise * rng.standard_normal(n) if noise else 0.0
            X[:, t, c] = np.linalg.solve(np.eye(n) - W, U[:, t, c] + eps)
    if C == 1:
        return nd.CascadeData(X[:, :, 0], U[:, :, 0])
    return nd.CascadeData(X, U)


def batch_grams(data, gamma):
    """Weighted Gram recomputed from scratch (oracle for the recursive
    update)."""
    n, T = data.n, data.t
    G = np.zeros((2 * n, 2 * n))
    for t in range(T):
        At = np.concatenate([data.X[:, t, :], data.U[:, t, :]], axis=0)
        G += gamma ** (T - 1 - t) * (At @ At.T)
    return G


class TestCascadeData:
    def test_two_dim_promotes(self):
        d = nd.CascadeData(np.ones((3, 5)), np.ones((3, 5)))
        assert d.X.shape == (3, 5, 1)
        assert d.c == 1

    def test_per_cascade_inputs_broadcast(self):
        d = nd.CascadeData(np.ones((3, 5, 2)), np.ones((3, 2)))
        assert d.U.shape == (3, 5, 2)

    def test_misaligned_rejected(self):
        with pytest.raises(BadDimension):
            nd.CascadeData(np.ones((3, 5)), np.ones((4, 5)))


class TestSemFit:
    def test_noiseless_identification(self):
        W = np.array([[0.0, 0.5], [0.2, 0.0]])
        rng = np.random.default_rng(0)
        data = sem_dataset(W, 50, rng)
        What, omega, _ = nd.sem_fit(data, 1e-8)
        assert np.abs(What.data - W).max() <= 1e-4
        np.testing.assert_allclose(omega, [1.0, 1.0], atol=1e-4)

    def test_empty_truth_stays_empty(self):
        rng = np.random.default_rng(1)
        data = sem_dataset(np.zeros((5, 5)), 400, rng, noise=0.1)
        What, omega, _ = nd.sem_fit(data, 20.0)
        assert np.abs(What.data).max() <= 0.05
        np.testing.assert_allclose(omega, np.ones(5), atol=0.05)

    def test_huge_penalty_leaves_exogenous_regression(self):
        W = np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
        rng = np.random.default_rng(2)
        data = sem_dataset(W, 200, rng)
        What, omega, _ = nd.sem_fit(data, 1e6)
        assert np.all(What.data == 0.0)
        X, U = data.X[:, :, 0], data.U[:, :, 0]
        for i in range(3):
            ols = float(U[i] @ X[i]) / float(U[i] @ U[i])
            assert omega[i] == pytest.approx(ols, abs=1e-6)

    def test_diagonal_exactly_zero(self):
        rng = np.random.default_rng(3)
        W = sim.gen_er_digraph(6, 0.4, radius=0.4, rng=rng)
        data = sem_dataset(W.data, 100, rng, noise=0.05)
        What, _, _ = nd.sem_fit(data, 0.5)
        assert np.all(np.diag(What.data) == 0.0)

    @given(hst.integers(3, 8), hst.integers(20, 80), hst.integers(-6, 6),
           hst.floats(0.01, 10.0), hst.integers(0, 2 ** 32 - 1))
    def test_power_of_two_rescaling_is_bitwise(self, n, T, k, alpha, seed):
        # (cX, cU, c^2 alpha) scales the Gram, its right-hand sides and the
        # penalty by c^2, which a power of two does without rounding
        rng = np.random.default_rng(seed)
        W = sim.gen_er_digraph(n, 0.4, radius=0.4, rng=rng)
        data = sem_dataset(W.data, T, rng, noise=0.1)
        c = 2.0 ** k
        What, omega, _ = nd.sem_fit(data, alpha)
        Wc, omega_c, _ = nd.sem_fit(nd.CascadeData(c * data.X, c * data.U), c * c * alpha)
        assert np.array_equal(Wc.data, What.data)
        assert np.array_equal(omega_c, omega)
        assert np.all(np.diag(Wc.data) == 0.0)


    def test_logged_objective_is_the_criterion(self):
        # sum_t ||x_t - W x_t - Omega u_t||^2 + alpha ||W||_1 at the output,
        # the value the tracker logs at gamma = 1
        rng = np.random.default_rng(12)
        W = sim.gen_er_digraph(6, 0.4, radius=0.4, rng=rng)
        data = sem_dataset(W.data, 200, rng, noise=0.1)
        alpha = 2.0
        What, omega, trace = nd.sem_fit(data, alpha)
        X, U = data.X[:, :, 0], data.U[:, :, 0]
        resid = X - What.data @ X - omega[:, None] * U
        crit = float((resid ** 2).sum()) + alpha * float(np.abs(What.data).sum())
        assert trace.objective[-1] == pytest.approx(crit, rel=1e-9)
        traj = nd.dynamic_sem_track(data, 1.0, alpha)
        assert traj.objectives[-1] == pytest.approx(crit, rel=1e-6)


class TestSvarm:
    def make_var1(self, seed, T=2000, noise=0.3):
        rng = np.random.default_rng(seed)
        W1 = np.zeros((6, 6))
        W1[0, 1], W1[2, 3], W1[4, 5], W1[1, 4] = 0.5, -0.45, 0.4, 0.35
        X = np.zeros((6, T))
        X[:, 0] = rng.standard_normal(6)
        for t in range(1, T):
            X[:, t] = W1 @ X[:, t - 1] + noise * rng.standard_normal(6)
        return W1, X

    def test_lag_one_truth_keeps_second_lag_empty(self):
        fs = []
        for seed in range(10):
            W1, X = self.make_var1(seed)
            edges, Ws, _ = nd.svarm_fit(X, 2, 40.0)
            assert np.abs(Ws[1]).max() <= 0.05
            true = W1 != 0
            tp = (edges & true).sum()
            fp = (edges & ~true).sum()
            fn = (~edges & true).sum()
            fs.append(2 * tp / max(2 * tp + fp + fn, 1))
        assert np.median(fs) >= 0.9

    def test_white_noise_stays_empty(self):
        rates = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((6, 500))
            edges, _, _ = nd.svarm_fit(X, 2, 60.0)
            rates.append(edges.mean())
        assert np.mean(rates) <= 0.05

    def test_and_subset_of_or(self):
        for seed in range(5):
            _, X = self.make_var1(seed, T=300)
            e_or, _, _ = nd.svarm_fit(X, 2, 10.0, "or")
            e_and, _, _ = nd.svarm_fit(X, 2, 10.0, "and")
            assert np.all(~e_and | e_or)

    @given(hst.integers(3, 8), hst.integers(20, 80), hst.integers(1, 3),
           hst.integers(-6, 6), hst.floats(0.01, 20.0), hst.integers(0, 2 ** 32 - 1))
    def test_power_of_two_rescaling_is_bitwise(self, n, T, lags, k, lam, seed):
        X = np.random.default_rng(seed).standard_normal((n, T))
        c = 2.0 ** k
        edges, Ws, _ = nd.svarm_fit(X, lags, lam)
        edges_c, Ws_c, _ = nd.svarm_fit(c * X, lags, c * c * lam)
        assert np.array_equal(edges_c, edges)
        assert len(Ws_c) == len(Ws) == lags
        for W, Wc in zip(Ws, Ws_c):
            assert np.array_equal(Wc, W)

    def test_short_series_rejected(self):
        with pytest.raises(TooFewSamples):
            nd.svarm_fit(np.ones((4, 3)), 2, 1.0)


class TestDynamicSem:
    def test_gamma_one_matches_batch(self):
        rng = np.random.default_rng(4)
        W = sim.gen_er_digraph(5, 0.3, radius=0.4, rng=rng)
        data = sem_dataset(W.data, 40, rng, noise=0.05, C=3)
        traj = nd.dynamic_sem_track(data, 1.0, 1.0)
        Wb, _, _ = nd.sem_fit(data, 1.0)
        assert np.abs(traj.weights[-1] - Wb.data).max() <= 1e-6

    def test_recursive_grams_match_batch_recomputation(self):
        rng = np.random.default_rng(5)
        data = sem_dataset(np.zeros((4, 4)), 25, rng, noise=1.0, C=2)
        gamma = 0.85
        G = np.zeros((8, 8))
        for t in range(data.t):
            At = np.concatenate([data.X[:, t, :], data.U[:, t, :]], axis=0)
            G = gamma * G + At @ At.T
            ref = batch_grams(
                nd.CascadeData(data.X[:, : t + 1, :], data.U[:, : t + 1, :]),
                gamma)
            assert np.abs(G - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_tracking_switch(self):
        rng = np.random.default_rng(6)
        N, T, C = 12, 60, 4
        WA = sim.gen_er_digraph(N, 0.15, radius=0.45, rng=rng)
        WB = sim.gen_er_digraph(N, 0.35, radius=0.45, rng=rng)
        X = np.zeros((N, T, C))
        U = rng.standard_normal((N, T, C))
        for t in range(T):
            W = WA.data if t < T // 2 else WB.data
            for c in range(C):
                X[:, t, c] = np.linalg.solve(
                    np.eye(N) - W, U[:, t, c] + 0.05 * rng.standard_normal(N))
        traj = nd.dynamic_sem_track(nd.CascadeData(X, U), 0.9, 4.0)
        true = WB.data != 0
        fs = []
        for W in traj.weights[3 * T // 4:]:
            est = W != 0
            tp = (est & true).sum()
            fp = (est & ~true).sum()
            fn = (~est & true).sum()
            fs.append(2 * tp / max(2 * tp + fp + fn, 1))
        assert np.median(fs) >= 0.7
        for W in traj.weights:
            assert np.all(np.diag(W) == 0.0)

    def test_trace_reports_the_worst_epoch_and_warns_once(self, monkeypatch):
        # with one sweep per node every epoch stops at the cap: one
        # warning for the run, the sweeps summed over the epochs
        rng = np.random.default_rng(4)
        W = sim.gen_er_digraph(5, 0.3, radius=0.4, rng=rng)
        data = sem_dataset(W.data, 40, rng, noise=0.05, C=3)
        with pytest.warns(UserWarning, match="1-sweep cap in 40 of 40 epochs") as warned:
            traj = nd.dynamic_sem_track(data, 0.9, 1.0, SolverConfig(max_iters=1))
        assert len(warned) == 1
        assert traj.trace.status == "max_iters" and traj.trace.iters_used == 40 * 5
        # converged: the largest KKT residual of the epochs, their sweeps summed
        solve, epochs = nd._sem_solve_nodes, []

        def recorded(*args, **kwargs):
            out = solve(*args, **kwargs)
            epochs.append((out[3].kkt_residual, out[3].iters_used))
            return out
        monkeypatch.setattr(nd, "_sem_solve_nodes", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = nd.dynamic_sem_track(data, 0.9, 1.0)
        assert len(epochs) == 40 and traj.trace.status == "converged"
        assert traj.trace.kkt_residual == max(kkt for kkt, _ in epochs)
        assert traj.trace.iters_used == sum(sweeps for _, sweeps in epochs)

    def test_no_epochs_is_too_few_samples(self):
        # no epoch leaves no trace to report, and no graph to write
        with pytest.raises(TooFewSamples, match="at least one epoch"):
            nd.dynamic_sem_track(nd.CascadeData(np.ones((3, 0)), np.ones((3, 0))), 0.9, 1.0)

    def test_bad_gamma(self):
        with pytest.raises(BadParameter):
            nd.dynamic_sem_track(nd.CascadeData(np.ones((3, 4)),
                                                np.ones((3, 4))), 0.0, 1.0)
