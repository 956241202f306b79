import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import glkit.graphcore as gc
from glkit.errors import (
    BadDimension,
    BadIndex,
    BadK,
    InvalidWeight,
    NotSymmetric,
    WrongKind,
)

RT2 = np.sqrt(2.0)


def path2(weight=1.0):
    return gc.build_shift([(0, 1, weight)], 2, gc.ShiftKind.LAPLACIAN)


def random_laplacian(n, rng, p=0.5):
    iu, ju = np.triu_indices(n, 1)
    w = np.where(rng.random(iu.size) < p, rng.uniform(0.2, 2.0, iu.size), 0.0)
    W = np.zeros((n, n))
    W[iu, ju] = w
    W[ju, iu] = w
    return gc.laplacian_from_weights(W)


class TestBuildShift:
    def test_path_laplacian(self):
        L = path2()
        np.testing.assert_allclose(L.data, [[1, -1], [-1, 1]])

    def test_empty_adjacency(self):
        A = gc.build_shift([], 3, gc.ShiftKind.ADJACENCY)
        assert np.all(A.data == 0)

    def test_weighted_laplacian_matches_degree_formula(self):
        # L = diag(W 1) - W computed by hand for the two-edge graph
        L = gc.build_shift([(0, 1, 2), (1, 2, 1)], 3, gc.ShiftKind.LAPLACIAN)
        np.testing.assert_allclose(L.data, [[2, -2, 0], [-2, 3, -1], [0, -1, 1]])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidWeight):
            gc.build_shift([(0, 1, -1.0)], 2, gc.ShiftKind.ADJACENCY)

    def test_out_of_range_index(self):
        with pytest.raises(BadIndex):
            gc.build_shift([(0, 5, 1.0)], 3, gc.ShiftKind.LAPLACIAN)

    def test_self_loop_rejected_for_adjacency(self):
        with pytest.raises(InvalidWeight):
            gc.build_shift([(1, 1, 1.0)], 3, gc.ShiftKind.ADJACENCY)

    def test_asymmetric_undirected_rejected(self):
        with pytest.raises(NotSymmetric):
            gc.ShiftOperator(np.array([[0.0, 1.0], [0.5, 0.0]]),
                             gc.ShiftKind.GENERIC, directed=False)


class TestEigendecompose:
    def test_two_path(self):
        basis = gc.eigendecompose(path2())
        np.testing.assert_allclose(basis.vals, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            basis.vecs, np.array([[1, 1], [1, -1]]) / RT2, atol=1e-12)

    def test_identity(self):
        basis = gc.eigendecompose(np.eye(4))
        np.testing.assert_allclose(basis.vals, np.ones(4))
        np.testing.assert_allclose(basis.vecs, np.eye(4), atol=1e-12)

    def test_diagonal_sorted(self):
        basis = gc.eigendecompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(basis.vals, [1.0, 3.0])
        np.testing.assert_allclose(np.abs(basis.vecs), [[0, 1], [1, 0]], atol=1e-12)

    def test_asymmetric_raises(self):
        with pytest.raises(NotSymmetric):
            gc.eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = random_laplacian(7, rng)
            basis = gc.eigendecompose(L)
            np.testing.assert_allclose(basis.vecs.T @ basis.vecs, np.eye(7),
                                       atol=1e-8)
            rec = (basis.vecs * basis.vals) @ basis.vecs.T
            assert np.linalg.norm(rec - L.data) <= 1e-7 * max(
                np.linalg.norm(L.data), 1e-12)

    def test_sign_convention_reproducible(self):
        rng = np.random.default_rng(1)
        L = random_laplacian(6, rng)
        b1 = gc.eigendecompose(L)
        b2 = gc.eigendecompose(gc.ShiftOperator(L.data.copy(),
                                                gc.ShiftKind.LAPLACIAN))
        np.testing.assert_array_equal(b1.vecs, b2.vecs)


class TestGFT:
    def test_constant_signal_is_dc(self):
        basis = gc.eigendecompose(path2())
        np.testing.assert_allclose(gc.gft([1.0, 1.0], basis), [RT2, 0.0],
                                   atol=1e-12)

    def test_basis_vector_synthesis(self):
        basis = gc.eigendecompose(path2())
        e1 = np.array([0.0, 1.0])
        np.testing.assert_allclose(gc.igft(e1, basis), basis.vecs[:, 1])

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(2)
        basis = gc.eigendecompose(random_laplacian(9, rng))
        for _ in range(50):
            x = rng.standard_normal(9)
            xt = gc.gft(x, basis)
            np.testing.assert_allclose(gc.igft(xt, basis), x, atol=1e-10)
            assert abs(np.linalg.norm(xt) - np.linalg.norm(x)) <= 1e-10

    def test_dimension_mismatch(self):
        basis = gc.eigendecompose(path2())
        with pytest.raises(BadDimension):
            gc.gft(np.ones(3), basis)


class TestTotalVariation:
    def test_weighted_pair(self):
        L = path2(weight=2.0)
        assert gc.total_variation([1.0, 3.0], L) == pytest.approx(8.0)

    def test_constant_is_flat(self):
        rng = np.random.default_rng(3)
        L = random_laplacian(8, rng, p=0.9)
        assert gc.total_variation(np.full(8, 3.7), L) == pytest.approx(0.0, abs=1e-9)

    def test_eigenvector_energy_is_frequency(self):
        rng = np.random.default_rng(4)
        L = random_laplacian(7, rng)
        basis = gc.eigendecompose(L)
        for k in range(7):
            assert gc.total_variation(basis.vecs[:, k], L) == pytest.approx(
                basis.vals[k], abs=1e-9)

    def test_pairwise_form_identity(self):
        rng = np.random.default_rng(5)
        L = random_laplacian(6, rng)
        W = L.weights()
        x = rng.standard_normal(6)
        iu, ju = np.triu_indices(6, 1)
        by_pairs = float(np.sum(W[iu, ju] * (x[iu] - x[ju]) ** 2))
        assert gc.total_variation(x, L) == pytest.approx(by_pairs, rel=1e-9)

    def test_wrong_kind(self):
        A = gc.build_shift([(0, 1, 1.0)], 2, gc.ShiftKind.ADJACENCY)
        with pytest.raises(WrongKind):
            gc.total_variation([1.0, 0.0], A)

    def test_zero_only_on_componentwise_constants(self):
        L = gc.build_shift([(0, 1, 1.0), (2, 3, 1.0)], 4,
                           gc.ShiftKind.LAPLACIAN)
        assert gc.total_variation([2.0, 2.0, -1.0, -1.0], L) == pytest.approx(0.0)
        assert gc.total_variation([2.0, 1.0, -1.0, -1.0], L) > 0


class TestFilters:
    def test_cycle_shift_rotates(self):
        n = 5
        W = np.zeros((n, n))
        for j in range(n):
            W[(j + 1) % n, j] = 1.0
        S = gc.ShiftOperator(W, gc.ShiftKind.ADJACENCY, directed=True)
        x = np.arange(n, dtype=float)
        np.testing.assert_allclose(gc.apply_filter(S, [0.0, 1.0], x),
                                   np.roll(x, 1))

    def test_identity_filter(self):
        rng = np.random.default_rng(6)
        L = random_laplacian(5, rng)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(gc.apply_filter(L, [1.0], x), x)

    def test_first_order_on_path(self):
        L = path2()
        np.testing.assert_allclose(gc.apply_filter(L, [1.0, 1.0], [1.0, 0.0]),
                                   [2.0, -1.0])

    def test_commutes_with_shift(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            L = random_laplacian(6, rng)
            h = rng.standard_normal(4)
            H = gc.filter_matrix(L, h)
            S = L.data
            assert np.linalg.norm(H @ S - S @ H) <= 1e-8 * max(
                np.linalg.norm(H) * np.linalg.norm(S), 1e-12)

    def test_frequency_response_vandermonde(self):
        basis = gc.SpectralBasis(np.eye(2), np.array([0.0, 2.0]))
        np.testing.assert_allclose(gc.filter_freq_response([1.0, 1.0], basis),
                                   [1.0, 3.0])

    def test_constant_and_shift_responses(self):
        rng = np.random.default_rng(8)
        basis = gc.eigendecompose(random_laplacian(6, rng))
        np.testing.assert_allclose(gc.filter_freq_response([2.5], basis),
                                   np.full(6, 2.5))
        np.testing.assert_allclose(gc.filter_freq_response([0.0, 1.0], basis),
                                   basis.vals)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(9)
        L = random_laplacian(8, rng)
        basis = gc.eigendecompose(L)
        h = rng.standard_normal(3)
        x = rng.standard_normal(8)
        lhs = gc.gft(gc.apply_filter(L, h, x), basis)
        rhs = gc.filter_freq_response(h, basis) * gc.gft(x, basis)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestStationarity:
    def test_white_noise_everywhere_stationary(self):
        rng = np.random.default_rng(10)
        basis = gc.eigendecompose(random_laplacian(7, rng))
        assert gc.stationarity_score(np.eye(7), basis) == pytest.approx(0.0)

    def test_constructed_stationary(self):
        rng = np.random.default_rng(11)
        basis = gc.eigendecompose(random_laplacian(7, rng))
        p = rng.uniform(0.5, 2.0, 7)
        Sigma = (basis.vecs * p) @ basis.vecs.T
        assert gc.stationarity_score(Sigma, basis) <= 1e-10

    def test_nonstationary_positive(self):
        basis = gc.eigendecompose(path2())
        Sigma = np.diag([1.0, 2.0])
        # independent oracle: conjugate and measure off-diagonal energy
        C = basis.vecs.T @ Sigma @ basis.vecs
        expected = np.abs(C[0, 1]) * RT2 / np.linalg.norm(C)
        score = gc.stationarity_score(Sigma, basis)
        assert score == pytest.approx(expected, rel=1e-12)
        assert score > 0.1

    def test_psd_of_identity_and_scaling(self):
        rng = np.random.default_rng(12)
        basis = gc.eigendecompose(random_laplacian(5, rng))
        np.testing.assert_allclose(gc.graph_psd(np.eye(5), basis), np.ones(5),
                                   atol=1e-12)
        np.testing.assert_allclose(gc.graph_psd(2 * np.eye(5), basis),
                                   2 * np.ones(5), atol=1e-12)

    def test_psd_of_filtered_white_noise(self):
        rng = np.random.default_rng(13)
        L = random_laplacian(6, rng)
        basis = gc.eigendecompose(L)
        h = np.array([1.0, -0.4, 0.1])
        H = gc.filter_matrix(L, h)
        Sigma = H @ H.T
        assert gc.stationarity_score(Sigma, basis) <= 1e-10
        p = gc.graph_psd(Sigma, basis)
        np.testing.assert_allclose(p, gc.filter_freq_response(h, basis) ** 2,
                                   atol=1e-9)

    def test_psd_warns_when_not_stationary(self):
        basis = gc.eigendecompose(path2())
        with pytest.warns(UserWarning):
            gc.graph_psd(np.diag([1.0, 2.0]), basis)


class TestBandlimit:
    def test_single_mode(self):
        rng = np.random.default_rng(14)
        basis = gc.eigendecompose(random_laplacian(6, rng))
        _, rel = gc.bandlimit_reconstruct(basis.vecs[:, 1], basis, 1)
        assert rel <= 1e-12

    def test_full_basis(self):
        rng = np.random.default_rng(15)
        basis = gc.eigendecompose(random_laplacian(6, rng))
        _, rel = gc.bandlimit_reconstruct(rng.standard_normal(6), basis, 6)
        assert rel <= 1e-12

    def test_four_sparse_signal_exact_at_four(self):
        rng = np.random.default_rng(16)
        basis = gc.eigendecompose(random_laplacian(9, rng))
        coeffs = np.zeros(9)
        coeffs[[0, 2, 5, 7]] = rng.uniform(1.0, 2.0, 4)
        x = gc.igft(coeffs, basis)
        _, rel = gc.bandlimit_reconstruct(x, basis, 4)
        assert rel <= 1e-12

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(17)
        basis = gc.eigendecompose(random_laplacian(8, rng))
        x = rng.standard_normal(8)
        errs = [gc.bandlimit_reconstruct(x, basis, k)[1] for k in range(1, 9)]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_frequency_order_keeps_low_modes(self):
        rng = np.random.default_rng(18)
        basis = gc.eigendecompose(random_laplacian(8, rng))
        coeffs = np.zeros(8)
        coeffs[:3] = [1.0, -2.0, 0.5]
        x = gc.igft(coeffs, basis)
        _, rel = gc.bandlimit_reconstruct(x, basis, 3, order="freq")
        assert rel <= 1e-12

    def test_bad_k(self):
        basis = gc.eigendecompose(path2())
        with pytest.raises(BadK):
            gc.bandlimit_reconstruct([1.0, 0.0], basis, 3)


class TestEdgeIndex:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 31])
    def test_matches_triu_order(self, n):
        iu, ju = gc.edge_index(n)
        ref_i, ref_j = np.triu_indices(n, 1)
        assert np.array_equal(iu, ref_i) and np.array_equal(ju, ref_j)
        up, lo = gc.edge_positions(n)
        M = np.arange(n * n).reshape(n, n)
        assert np.array_equal(M.ravel()[up], M[iu, ju])
        assert np.array_equal(M.ravel()[lo], M[ju, iu])

    def test_cached_and_read_only(self):
        assert gc.edge_index(6)[0] is gc.edge_index(6)[0]
        assert gc.edge_positions(6)[1] is gc.edge_positions(6)[1]
        for arr in (*gc.edge_index(6), *gc.edge_positions(6)):
            with pytest.raises(ValueError):
                arr[0] = 1


def reference_edges(S):
    """The edge list by a plain double loop over every entry."""
    M, n = S.data, S.n
    out = []
    if S.kind in (gc.ShiftKind.PRECISION, gc.ShiftKind.GENERIC):
        out += [(i, i, float(M[i, i])) for i in range(n) if M[i, i] != 0]
    vals = -M if S.kind is gc.ShiftKind.LAPLACIAN else M
    for i in range(n):
        for j in range(n) if S.directed else range(i + 1, n):
            if j != i and vals[i, j] != 0:
                out.append((i, j, float(vals[i, j])))
    return out


@given(st.integers(1, 12), st.sampled_from(list(gc.ShiftKind)), st.booleans(),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_edges_match_double_loop(n, kind, directed, density, seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < density)
    if not directed:
        W = np.triu(W, 1) + np.triu(W, 1).T
    np.fill_diagonal(W, 0.0)
    if kind is gc.ShiftKind.ADJACENCY:
        M = W
    elif kind is gc.ShiftKind.LAPLACIAN:
        M = np.diag(W.sum(axis=1)) - W
    else:  # signed entries and a sparse diagonal
        M = W * np.sign(W - 1.0) + np.diag(rng.normal(size=n) * (rng.random(n) < 0.5))
    S = gc.ShiftOperator(M, kind, directed)
    got = S.edges()
    assert got == reference_edges(S)
    assert all(type(i) is int and type(j) is int and type(w) is float
               for i, j, w in got)


def test_random_laplacians_are_psd():
    rng = np.random.default_rng(19)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        L = random_laplacian(n, rng, p=float(rng.uniform(0.2, 1.0)))
        worst = min(worst, float(np.linalg.eigvalsh(L.data).min()))
    assert worst >= -1e-9
