import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from scipy.optimize import minimize

import glkit.graphcore as gc
import glkit.simulate as sim
import glkit.smoothlearn as sl
from glkit.errors import BadInput, BadK, BadParameter, Infeasible


def edge_fscore(est_edges, true_edges):
    est, true = set(est_edges), set(true_edges)
    tp = len(est & true)
    if not est or not true:
        return 0.0
    p = tp / len(est)
    r = tp / len(true)
    return 2 * p * r / (p + r) if p + r else 0.0


class TestDistanceMatrix:
    def test_identical_rows(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        Z = sl.distance_matrix(X).Z
        assert Z[0, 1] == 0.0

    def test_worked_example(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        Z = sl.distance_matrix(X).Z
        assert Z[0, 1] == pytest.approx(2.0)
        assert Z[0, 2] == pytest.approx(50.0)
        assert Z[1, 2] == pytest.approx(32.0)

    def test_matches_pdist(self):
        from scipy.spatial.distance import pdist, squareform

        rng = np.random.default_rng(2)
        for n, p in ((1, 3), (2, 1), (7, 40), (60, 300)):
            X = 10.0 * rng.standard_normal((n, p))
            X[n // 2] = X[0]  # an exact tie
            Z = sl.distance_matrix(X).Z
            ref = squareform(pdist(X, metric="sqeuclidean"))
            np.testing.assert_allclose(Z, ref, rtol=1e-12, atol=0.0)
            assert np.array_equal(Z, Z.T) and Z[0, n // 2] == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_signals_rejected(self, value):
        # NaN distances once passed every DistanceMatrix check, and
        # edge_select returned a graph built from them
        X = np.random.default_rng(3).standard_normal((6, 20))
        X[4, 2] = value
        with pytest.raises(BadInput, match="signals must be finite"):
            sl.distance_matrix(X)
        with pytest.raises(BadInput):
            sl.edge_select(X, 3)

    def test_overflowing_distances_rejected(self):
        X = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]])
        with pytest.raises(BadInput, match="distances must be finite"):
            sl.distance_matrix(X)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 7))
        Z1 = sl.distance_matrix(X).Z
        Z3 = sl.distance_matrix(3.0 * X).Z
        np.testing.assert_allclose(Z3, 9.0 * Z1, rtol=1e-9)

    def test_smoothness_sparsity_identity(self):
        # trace(X' L X) must equal 0.5 ||W o Z||_1 for every weight matrix
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            p = int(rng.integers(1, 12))
            X = rng.standard_normal((n, p))
            iu, ju = np.triu_indices(n, 1)
            w = np.where(rng.random(iu.size) < 0.7,
                         rng.uniform(0.1, 2.0, iu.size), 0.0)
            W = np.zeros((n, n))
            W[iu, ju] = w
            W[ju, iu] = w
            L = gc.laplacian_from_weights(W)
            lhs = sum(gc.total_variation(X[:, k], L) for k in range(p))
            rhs = 0.5 * np.abs(W * sl.distance_matrix(X).Z).sum()
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestKalofolias:
    def test_two_node_roots(self):
        Z = np.array([[0.0, 1.0], [1.0, 0.0]])
        W0, _ = sl.kalofolias_learn(Z, 1.0, 0.0)
        assert W0[0, 1] == pytest.approx(1.0, abs=1e-6)
        W1, _ = sl.kalofolias_learn(Z, 1.0, 1.0)
        assert W1[0, 1] == pytest.approx((-1 + np.sqrt(5)) / 2, abs=1e-6)

    def test_feasible_with_positive_degrees(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            X = rng.standard_normal((n, 10))
            W, _ = sl.kalofolias_learn(sl.distance_matrix(X), 1.0, 0.5)
            assert np.abs(np.diag(W)).max() == 0.0
            assert np.abs(W - W.T).max() <= 1e-12
            assert W.min() >= 0.0
            assert W.sum(axis=1).min() > 0.0

    def test_beta_zero_is_sparsest(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            X = rng.standard_normal((7, 12))
            Z = sl.distance_matrix(X)
            counts = {}
            for beta in (0.0, 0.1, 1.0):
                W, _ = sl.kalofolias_learn(Z, 1.0, beta)
                counts[beta] = int((W[np.triu_indices(7, 1)]
                                    > 1e-6 * max(W.max(), 1e-30)).sum())
            assert counts[0.0] <= counts[0.1]
            assert counts[0.0] <= counts[1.0]

    def test_two_cluster_weight_mass(self):
        rng = np.random.default_rng(4)
        centers = np.array([[-5.0], [5.0]])
        X = np.vstack([
            centers[0] + 0.1 * rng.standard_normal((4, 6)),
            centers[1] + 0.1 * rng.standard_normal((4, 6)),
        ])
        W, _ = sl.kalofolias_learn(sl.distance_matrix(X), 1.0, 0.1)
        intra = W[:4, :4].sum() + W[4:, 4:].sum()
        assert intra / W.sum() >= 0.9

    def test_zero_row_with_beta_zero_guard(self):
        Z = np.zeros((3, 3))
        Z[1, 2] = Z[2, 1] = 1.0  # node 0 at distance 0 from everything
        with pytest.warns(UserWarning, match="WEIGHT_CAP") as record:
            W, trace = sl.kalofolias_learn(Z, 1.0, 0.0)
        assert len(record) == 1  # one event, one warning
        # weights head for infinity but stay below the safety cap
        from glkit.solvers import WEIGHT_CAP
        assert W.max() <= WEIGHT_CAP
        assert not trace.converged and trace.status == "stalled"

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_capped_solve_warns(self, beta):
        Z = sl.distance_matrix(np.random.default_rng(0).standard_normal((30, 50)))
        with pytest.warns(UserWarning, match="3-step cap"):
            _, trace = sl.kalofolias_learn(Z, 1.0, beta, sl.SolverConfig(max_iters=3))
        assert not trace.converged and trace.iters_used == 3
        assert trace.status == "max_iters"

    def test_alpha_must_be_positive(self):
        with pytest.raises(BadParameter):
            sl.kalofolias_learn(np.zeros((3, 3)), 0.0, 1.0)

    @given(n=hst.integers(2, 9), p=hst.integers(2, 20), u=hst.floats(-1.5, 0.5),
           alpha=hst.floats(0.1, 10.0), beta=hst.sampled_from([0.0, 0.1, 1.0, 10.0]),
           c=hst.floats(0.1, 10.0), seed=hst.integers(0, 2 ** 32 - 1))
    def test_graph_invariants_and_scale_equivariance(self, n, p, u, alpha, beta, c, seed):
        X = 10.0 ** u * np.random.default_rng(seed).standard_normal((n, p))
        Z = sl.distance_matrix(X).Z
        W, trace = sl.kalofolias_learn(Z, alpha, beta)
        Wc, trace_c = sl.kalofolias_learn(c * Z, alpha, c * c * beta)
        for M, tr in ((W, trace), (Wc, trace_c)):
            assert tr.converged
            assert np.array_equal(M, M.T) and M.min() >= 0.0
            assert not np.diag(M).any()
        # the engine sees Z over max(mean(Z), 1): when both means reach 1
        # the two solves are one problem up to rounding, and agree to the
        # engine's tolerance. Below 1 they are different problems whose
        # solutions agree only to solver accuracy (8e-5 relative measured
        # at beta = 0), so no bound is asserted there.
        mean = Z[np.triu_indices(n, 1)].mean()
        if mean >= 1.0 and c * mean >= 1.0:
            tol = sl.SolverConfig().tol
            assert np.abs(c * Wc - W).max() <= tol * np.abs(W).max()


class TestDongLearn:
    def test_tiny_alpha_keeps_signals(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 20))
        L, Y, _ = sl.dong_learn(X, 1e-8, 1.0)
        assert np.abs(Y - X).max() <= 1e-5

    def test_single_vertex_infeasible(self):
        # no Laplacian with trace N exists on one vertex
        with pytest.raises(Infeasible):
            sl.dong_learn(np.ones((1, 10)), 0.5, 1.0)

    def test_constant_columns_pass_through(self):
        X = np.ones((5, 8)) * np.arange(1, 9)
        L, Y, _ = sl.dong_learn(X, 0.5, 1.0)
        np.testing.assert_allclose(Y, X, atol=1e-8)

    def test_outputs_valid_normalized_laplacian(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((7, 30))
        L, Y, trace = sl.dong_learn(X, 0.05, 1.0)
        assert np.trace(L.data) == pytest.approx(7.0, abs=1e-6)
        assert np.abs(L.data.sum(axis=1)).max() <= 1e-9

    def test_objective_monotone(self):
        rng = np.random.default_rng(8)
        G = sim.gen_er_graph(8, 0.4, rng=9, require_connected=True)
        Lt = gc.laplacian_from_weights(G.data)
        X = sim.gen_smooth(Lt, 200, 0.05, rng=10).data
        _, _, trace = sl.dong_learn(X, 0.05, 1.0)
        objs = np.array(trace.objective)
        assert np.all(np.diff(objs) <= 1e-6 * np.maximum(1.0, np.abs(objs[:-1])))

    def test_capped_laplacian_step_is_not_converged(self):
        # the L step at the final Y needs more than 5 engine Newton steps
        X = np.random.default_rng(0).standard_normal((30, 100))
        with pytest.warns(UserWarning, match="5-step cap"):
            _, _, capped = sl.dong_learn(X, 0.05, 1.0, sl.SolverConfig(max_iters=5))
        assert not capped.converged and capped.status == "max_iters"
        assert not capped.notes["l_step_converged"][-1]
        _, _, trace = sl.dong_learn(X, 0.05, 1.0)
        assert trace.converged and all(trace.notes["l_step_converged"])
        assert len(trace.notes["l_step_converged"]) == trace.iters_used

    def test_outer_cap_warns(self):
        # this input needs several outer iterations (see the capped test above)
        X = np.random.default_rng(0).standard_normal((30, 100))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, trace = sl.dong_learn(X, 0.05, 1.0, outer_iters=1)
        assert [str(w.message) for w in caught] == [
            "dong_learn stopped at its 1-iteration outer cap before its stopping rule held"]
        assert not trace.converged and trace.iters_used == 1
        assert trace.status == "max_iters"
        assert len(trace.objective) == 1 and "rolled_back" not in trace.notes

    def test_worse_iteration_is_rolled_back(self):
        # with one Newton step per L step the second outer objective rises
        X = np.random.default_rng(0).standard_normal((10, 20))
        config = sl.SolverConfig(max_iters=1)
        with pytest.warns(UserWarning, match="1-step cap"):
            L, Y, trace = sl.dong_learn(X, 0.05, 1.0, config)
            with pytest.warns(UserWarning, match="1-iteration outer cap"):
                L1, Y1, trace1 = sl.dong_learn(X, 0.05, 1.0, config, outer_iters=1)
        assert trace.notes["rolled_back"] and not trace.converged
        # the rejected L step stopped at its cap, and the solve reports its status
        assert trace.status == trace1.status == "max_iters"
        assert trace.iters_used == 2 and len(trace.objective) == 1
        # the first iterate is returned, not the rejected second one
        np.testing.assert_array_equal(L.data, L1.data)
        np.testing.assert_array_equal(Y, Y1)

    def test_laplacian_step_matches_slsqp(self):
        # one outer iteration returns the first L step, taken at Y = X:
        # the trace-N Laplacian minimising alpha tr(X'LX) + beta/2 ||L||_F^2
        rng = np.random.default_rng(11)
        for n, alpha, beta in [(3, 0.5, 1.0), (5, 0.05, 1.0), (6, 2.0, 0.3),
                               (8, 0.2, 4.0), (8, 0.01, 1.0)]:
            X = rng.standard_normal((n, 12))
            with pytest.warns(UserWarning, match="1-iteration outer cap"):
                L, _, trace = sl.dong_learn(X, alpha, beta, outer_iters=1)
            assert trace.status == "max_iters" and not trace.converged
            iu, ju = np.triu_indices(n, 1)
            B = np.zeros((n, iu.size))
            B[iu, np.arange(iu.size)] = B[ju, np.arange(iu.size)] = 1.0

            def lap(w):
                return np.diag(B @ w) - gc.weights_from_edge_vector(w, n)

            def objective(w):
                Lw = lap(w)
                return alpha * np.trace(X.T @ Lw @ X) + 0.5 * beta * np.sum(Lw * Lw)

            G = X @ X.T
            zx = G[iu, iu] + G[ju, ju] - 2.0 * G[iu, ju]  # tr(X'L(w)X) = zx'w

            def grad(w):
                return alpha * zx + beta * (B.T @ (B @ w) + 2.0 * w)

            res = minimize(objective, np.full(iu.size, n / 2.0 / iu.size), jac=grad,
                           method="SLSQP", bounds=[(0.0, None)] * iu.size,
                           constraints=[{"type": "eq", "fun": lambda w: w.sum() - n / 2.0,
                                         "jac": lambda w: np.ones_like(w)}],
                           options={"ftol": 1e-14, "maxiter": 1000})
            # SLSQP may stop on a line-search failure at its optimum; check the point
            assert res.x.min() >= -1e-12 and res.x.sum() == pytest.approx(n / 2.0, abs=1e-9)
            w = -L.data[iu, ju]
            assert w.min() >= 0.0 and np.trace(L.data) == pytest.approx(n, abs=1e-9)
            assert objective(w) <= res.fun + 1e-9 * max(1.0, abs(res.fun))
            # the ridge term makes the minimiser unique
            assert np.abs(w - res.x).max() <= 1e-5 * max(1.0, w.max())

    def test_recovers_er_graphs_from_smooth_signals(self):
        fs = []
        for seed in range(20):
            G = sim.gen_er_graph(10, 0.35, rng=100 + seed,
                                 require_connected=True)
            Lt = gc.laplacian_from_weights(G.data)
            X = sim.gen_smooth(Lt, 500, 0.0, rng=seed)
            L, _, _ = sl.dong_learn(X, 0.01, 1.0)
            W = L.weights()
            iu, ju = np.triu_indices(10, 1)
            est = [(i, j) for i, j in zip(iu, ju)
                   if W[i, j] > 1e-6 * W.max()]
            true = [(i, j) for i, j in zip(iu, ju) if G.data[i, j] > 0]
            fs.append(edge_fscore(est, true))
        assert np.median(fs) >= 0.75


class TestEdgeSelect:
    def test_worked_example(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        edges, scores = sl.edge_select(X, 1)
        assert edges == [(0, 1)]
        assert scores[0, 1] == pytest.approx(2.0)

    def test_full_budget_is_complete_graph(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 6))
        edges, _ = sl.edge_select(X, 10)
        assert edges == list(combinations(range(5), 2))

    def test_constant_signals_break_ties_lexicographically(self):
        X = np.ones((4, 3))
        edges, _ = sl.edge_select(X, 3)
        assert edges == [(0, 1), (0, 2), (0, 3)]

    def test_bad_k(self):
        with pytest.raises(BadK):
            sl.edge_select(np.ones((4, 2)), 0)
        with pytest.raises(BadK):
            sl.edge_select(np.ones((4, 2)), 7)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(12)
        pairs = list(combinations(range(6), 2))
        for trial in range(10):
            X = rng.standard_normal((6, 4))
            Z = sl.distance_matrix(X).Z
            for K in (1, 3, 5):
                edges, _ = sl.edge_select(X, K)
                best = min((sum(Z[i, j] for i, j in combo), combo)
                           for combo in combinations(pairs, K))
                assert sum(Z[i, j] for i, j in edges) == pytest.approx(best[0])


class TestEdgeSelectNoisy:
    def test_noiseless_fixed_point(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 10))
        plain, _ = sl.edge_select(X, 4)
        edges, Y, trace = sl.edge_select_noisy(X, 4, alpha=0.3)
        assert trace.converged
        first_sweep, _ = sl.edge_select(X, 4)
        assert first_sweep == plain

    def test_tiny_alpha_reduces_to_plain_selection(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((6, 10))
        edges, Y, _ = sl.edge_select_noisy(X, 4, alpha=1e-10)
        plain, _ = sl.edge_select(X, 4)
        assert edges == plain
        assert np.abs(Y - X).max() <= 1e-6

    def test_objective_monotone(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((7, 25))
        _, _, trace = sl.edge_select_noisy(X, 6, alpha=0.5)
        objs = np.array(trace.objective)
        assert np.all(np.diff(objs) <= 1e-9)

    def test_capped_alternation_warns(self, monkeypatch):
        # this draw's edge set changes once before it repeats
        X = np.random.default_rng(4).standard_normal((8, 7))
        _, _, trace = sl.edge_select_noisy(X, 5, alpha=5.0)
        assert trace.converged and trace.iters_used == 2
        monkeypatch.setattr(sl, "EDGE_SELECT_OUTER_ITERS", 1)
        with pytest.warns(UserWarning, match="1-alternation cap") as record:
            _, _, trace = sl.edge_select_noisy(X, 5, alpha=5.0)
        assert len(record) == 1 and not trace.converged and trace.iters_used == 1
        assert trace.status == "max_iters"

    def test_recovery_under_noise(self):
        fs = []
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            # a fixed 5-edge graph on 6 nodes with smooth signals + noise
            iu, ju = np.triu_indices(6, 1)
            chosen = rng.choice(iu.size, size=5, replace=False)
            W = np.zeros((6, 6))
            W[iu[chosen], ju[chosen]] = 1.0
            W = W + W.T
            if not sim.is_connected(W):
                continue
            L = gc.laplacian_from_weights(W)
            X = sim.gen_smooth(L, 200, 0.0, rng=seed).data
            X = X + 0.1 * rng.standard_normal(X.shape)
            edges, _, _ = sl.edge_select_noisy(X, 5, alpha=1.0)
            true = [(int(i), int(j)) for i, j in zip(iu[chosen], ju[chosen])]
            fs.append(edge_fscore(edges, [tuple(sorted(t)) for t in true]))
        assert np.median(fs) >= 0.8
