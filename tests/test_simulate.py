import numpy as np
import pytest

import glkit.graphcore as gc
import glkit.simulate as sim
from glkit.errors import (BadDimension, BadParameter, CannotConnect, NotPositiveDefinite,
                          UnstableSEM)


class TestErGraph:
    def test_empty_and_complete(self):
        G0 = sim.gen_er_graph(6, 0.0, rng=0)
        assert np.all(G0.data == 0)
        G1 = sim.gen_er_graph(6, 1.0, rng=0)
        iu, ju = np.triu_indices(6, 1)
        assert np.all(G1.data[iu, ju] > 0)

    def test_mean_edge_count(self):
        # binomial mean 0.3 * C(20, 2) = 57
        rng = np.random.default_rng(42)
        counts = []
        for _ in range(10_000):
            iu_mask = rng.random(190) < 0.3
            counts.append(iu_mask.sum())
        assert abs(np.mean(counts) - 57.0) <= 3.0
        # and the generator itself agrees on a smaller sample
        gen_counts = [np.count_nonzero(
            sim.gen_er_graph(20, 0.3, rng=rng).data) // 2 for _ in range(500)]
        assert abs(np.mean(gen_counts) - 57.0) <= 3.0

    def test_connectivity_retry_and_failure(self):
        G = sim.gen_er_graph(8, 0.4, rng=1, require_connected=True)
        assert sim.is_connected(G.data)
        with pytest.raises(CannotConnect):
            sim.gen_er_graph(8, 0.01, rng=1, require_connected=True,
                             max_tries=5)

    def test_is_connected_matches_csgraph(self):
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            W = (rng.random((n, n)) < rng.uniform(0.0, 0.4)) * rng.random((n, n))
            ncomp, _ = connected_components(W != 0, directed=False)
            assert sim.is_connected(W) == (ncomp == 1)

    def test_weights_in_distribution_range(self):
        G = sim.gen_er_graph(12, 0.5, rng=2)
        w = G.data[G.data > 0]
        assert w.min() >= 0.5 and w.max() <= 1.5

    def test_bit_identical_reproduction(self):
        a = sim.gen_er_graph(10, 0.4, rng=7)
        b = sim.gen_er_graph(10, 0.4, rng=7)
        np.testing.assert_array_equal(a.data, b.data)


class TestGmrfSampling:
    def test_identity_precision_covariance(self):
        X = sim.sample_gmrf(np.eye(4), 100_000, rng=3)
        cov = (X.data @ X.data.T) / X.p
        assert np.abs(cov - np.eye(4)).max() <= 0.02

    def test_single_sample(self):
        X = sim.sample_gmrf(np.eye(3), 1, rng=4)
        assert X.data.shape == (3, 1)
        assert np.all(np.isfinite(X.data))

    def test_diagonal_precision_variances(self):
        X = sim.sample_gmrf(np.diag([4.0, 1.0]), 200_000, rng=5)
        var = X.data.var(axis=1)
        np.testing.assert_allclose(var, [0.25, 1.0], atol=0.02)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sim.sample_gmrf(np.diag([1.0, 0.0]), 10, rng=6)

    def test_reproducible(self):
        a = sim.sample_gmrf(np.eye(3), 50, rng=11)
        b = sim.sample_gmrf(np.eye(3), 50, rng=11)
        np.testing.assert_array_equal(a.data, b.data)


class TestDiffusion:
    def test_identity_filter_is_white(self):
        X = sim.gen_diffusion(np.zeros((5, 5)), [1.0], 200_000, rng=7)
        cov = (X.data @ X.data.T) / X.p
        assert np.abs(cov - np.eye(5)).max() <= 0.02

    def test_exact_ensemble_covariance_two_path(self):
        L = gc.build_shift([(0, 1, 1.0)], 2, gc.ShiftKind.LAPLACIAN)
        Sigma = sim.diffusion_covariance(L, [1.0, 0.5])
        np.testing.assert_allclose(Sigma, [[2.5, -1.5], [-1.5, 2.5]],
                                   atol=1e-12)

    def test_colored_input_identity_filter(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        Sw = M @ M.T + np.eye(4)
        Sigma = sim.diffusion_covariance(np.zeros((4, 4)), [1.0], Sw)
        np.testing.assert_allclose(Sigma, Sw, atol=1e-12)

    def test_white_input_ensemble_is_stationary(self):
        G = sim.gen_er_graph(7, 0.5, rng=9)
        Sigma = sim.diffusion_covariance(G, [1.0, 0.4, -0.2])
        basis = gc.eigendecompose(G)
        assert gc.stationarity_score(Sigma, basis) <= 1e-10

    def test_empirical_covariance_converges(self):
        G = sim.gen_er_graph(6, 0.5, rng=10)
        h = [1.0, 0.5]
        Sigma = sim.diffusion_covariance(G, h)
        p = 40_000
        hits = []
        for seed in range(5):
            X = sim.gen_diffusion(G, h, p, rng=seed)
            emp = (X.data @ X.data.T) / p
            err = np.abs(emp - Sigma)
            hits.append(np.mean(err <= 5.0 / np.sqrt(p) * max(1, Sigma.max())))
        assert np.mean(hits) >= 0.99

    def test_colored_input_draws_its_ensemble_covariance(self):
        # w = C^1/2 z, so the draw's covariance is H C H', not H H'
        G = sim.gen_er_graph(6, 0.5, rng=10)
        h = [1.0, 0.5]
        C = np.diag([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        Sigma = sim.diffusion_covariance(G, h, C)
        p = 200_000
        X = sim.gen_diffusion(G, h, p, input_cov=C, rng=3)
        emp = (X.data @ X.data.T) / p
        assert np.abs(emp - Sigma).max() <= 5.0 * np.sqrt(2.0 / p) * Sigma.max()
        assert np.abs(emp - sim.diffusion_covariance(G, h)).max() >= 0.1

    def test_bad_input_covariance_rejected(self):
        G = sim.gen_er_graph(4, 0.5, rng=1)
        with pytest.raises(BadDimension):
            sim.gen_diffusion(G, [1.0], 10, input_cov=np.eye(3), rng=1)
        with pytest.raises(BadParameter):
            sim.gen_diffusion(G, [1.0], 10, input_cov="pink", rng=1)


class TestSmooth:
    def test_expected_energy_single_mode(self):
        L = gc.build_shift([(0, 1, 1.0)], 2, gc.ShiftKind.LAPLACIAN)
        X = sim.gen_smooth(L, 200_000, 0.0, rng=11)
        tvs = np.einsum("ip,ij,jp->p", X.data, L.data, X.data)
        assert np.mean(tvs) == pytest.approx(1.0, abs=0.02)

    def test_zero_mode_suppressed(self):
        G = sim.gen_er_graph(6, 0.7, rng=12, require_connected=True)
        L = gc.laplacian_from_weights(G.data)
        X = sim.gen_smooth(L, 50, 0.0, rng=13)
        basis = gc.eigendecompose(L)
        coeffs = gc.gft(X.data, basis)
        assert np.abs(coeffs[0]).max() <= 1e-10

    def test_expected_energy_counts_nonzero_modes(self):
        G = sim.gen_er_graph(8, 0.6, rng=14, require_connected=True)
        L = gc.laplacian_from_weights(G.data)
        X = sim.gen_smooth(L, 100_000, 0.0, rng=15)
        tvs = np.einsum("ip,ij,jp->p", X.data, L.data, X.data)
        assert np.mean(tvs) == pytest.approx(7.0, rel=0.03)

    def test_high_frequency_modes_have_small_power(self):
        G = sim.gen_er_graph(8, 0.6, rng=16, require_connected=True)
        L = gc.laplacian_from_weights(G.data)
        basis = gc.eigendecompose(L)
        X = sim.gen_smooth(L, 50_000, 0.0, rng=17)
        coeffs = gc.gft(X.data, basis)
        power = coeffs.var(axis=1)
        np.testing.assert_allclose(power[1:], 1.0 / basis.vals[1:], rtol=0.1)

    def test_disconnected_warns(self):
        L = gc.build_shift([(0, 1, 1.0), (2, 3, 1.0)], 4,
                           gc.ShiftKind.LAPLACIAN)
        with pytest.warns(UserWarning):
            sim.gen_smooth(L, 5, 0.0, rng=18)


class TestSem:
    def test_no_network_passthrough(self):
        rng = np.random.default_rng(19)
        U = rng.standard_normal((4, 20))
        X = sim.gen_sem(np.zeros((4, 4)), np.eye(4), U, 0.0)
        np.testing.assert_allclose(X.data, U)

    def test_two_node_inverse(self):
        W = np.array([[0.0, 0.5], [0.2, 0.0]])
        X = sim.gen_sem(W, np.eye(2), np.array([1.0, 0.0]), 0.0)
        np.testing.assert_allclose(X.data[:, 0], [1 / 0.9, 0.2 / 0.9])

    def test_zero_drive_zero_output(self):
        W = np.array([[0.0, 0.3], [0.3, 0.0]])
        X = sim.gen_sem(W, np.zeros(2), np.ones((2, 5)), 0.0)
        assert np.all(X.data == 0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSEM):
            sim.gen_sem(np.array([[0.0, 1.2], [1.2, 0.0]]), np.eye(2),
                        np.ones(2))

    def test_digraph_radius(self):
        W = sim.gen_er_digraph(8, 0.4, radius=0.45, rng=20)
        assert sim.spectral_radius(W.data) == pytest.approx(0.45, abs=1e-9)
        assert np.all(np.diag(W.data) == 0)


def test_all_generators_reproducible():
    G = sim.gen_er_graph(6, 0.5, rng=21, require_connected=True)
    L = gc.laplacian_from_weights(G.data)
    pairs = [
        (sim.gen_diffusion(G, [1.0, 0.3], 20, rng=5),
         sim.gen_diffusion(G, [1.0, 0.3], 20, rng=5)),
        (sim.gen_smooth(L, 20, 0.1, rng=6),
         sim.gen_smooth(L, 20, 0.1, rng=6)),
    ]
    for a, b in pairs:
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_er_streams_pinned(seed):
    # every benchmark graph comes from these two generators: the draws
    # below, in this order, fix their outputs and the generator state
    # they leave behind
    n, p = 9, 0.3
    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)
    for connected in (False, True):
        ref = np.random.default_rng(seed)
        while True:
            mask = ref.random(m) < p
            W = np.zeros((n, n))
            W[iu, ju] = W[ju, iu] = np.where(mask, ref.uniform(0.5, 1.5, m), 0.0)
            if not connected or sim.is_connected(W):
                break
        rng = np.random.default_rng(seed)
        G = sim.gen_er_graph(n, p, rng=rng, require_connected=connected)
        np.testing.assert_array_equal(G.data, W)
        assert rng.bit_generator.state == ref.bit_generator.state

    ref = np.random.default_rng(seed)
    W = np.where(ref.random((n, n)) < p, ref.uniform(0.5, 1.5, (n, n)), 0.0)
    np.fill_diagonal(W, 0.0)
    W = W * (0.4 / np.abs(np.linalg.eigvals(W)).max())
    rng = np.random.default_rng(seed)
    D = sim.gen_er_digraph(n, p, radius=0.4, rng=rng)
    np.testing.assert_array_equal(D.data, W)
    assert rng.bit_generator.state == ref.bit_generator.state
