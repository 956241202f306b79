from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import glkit.graphcore as gc
import glkit.simulate as sim
import glkit.spectralid as sid
from glkit.errors import (BadDimension, BadInput, BadParameter, Infeasible,
                          SingularInputCovariance)
from glkit.metrics import evaluate, scale_aligned_error
from glkit.statnet import sample_covariance
import glkit.solvers as sv
from glkit.solvers import ShiftConstraintSet, spectral_gap


def diffused_basis(G, h=(1.0, 0.5, 0.2)):
    return gc.eigendecompose(sim.diffusion_covariance(G, list(h)))


class TestEstimateEigenbasis:
    def test_exact_covariance_shares_eigenvectors(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        Sigma = (np.eye(2) + S) @ (np.eye(2) + S)
        basis, flags = sid.estimate_eigenbasis(Sigma)
        np.testing.assert_allclose(np.abs(basis.vecs),
                                   np.abs(np.array([[1, 1], [1, -1]])
                                          / np.sqrt(2)), atol=1e-12)
        assert not flags.any()

    def test_identity_covariance_fully_degenerate(self):
        for n in (5, 50):
            basis, flags = sid.estimate_eigenbasis(np.eye(n))
            assert flags.all()

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_repeated_spectra_stay_flagged(self, n):
        # complete graph: eigenvalue -1 repeated N - 1 times; cycle: every
        # eigenvalue but 2 and -2 repeated twice (its rotations and reflection)
        complete = np.ones((n, n)) - np.eye(n)
        cycle = np.roll(np.eye(n), 1, axis=1)
        for S, repeated in ((complete, n - 1), (cycle + cycle.T, n - 2)):
            G = gc.ShiftOperator(S, gc.ShiftKind.ADJACENCY)
            _, flags = sid.estimate_eigenbasis(sim.diffusion_covariance(G, [1.0, 0.5, 0.2]))
            assert flags.sum() == repeated

    def test_close_distinct_modes_unflagged_n200(self):
        # h(x) = 1 + 0.5x + 0.2x^2 folds eigenvalues on either side of its
        # vertex onto close values of h^2: gaps 976 to 34,497 times eigh's
        # error on these draws, flagged under a tolerance relative to the
        # Perron eigenvalue alone, and then recovered only partially
        for s in range(8):
            G = sim.gen_er_graph(200, 0.3, rng=np.random.default_rng([s, 0]),
                                 require_connected=True)
            cov = sim.diffusion_covariance(G, [1.0, 0.5, 0.2])
            assert not sid.estimate_eigenbasis(cov)[1].any()
            S, trace, meta = sid.infer_shift_from_signals(cov)
            assert meta == {"eps": 0.0} and trace.converged
            report = evaluate(S, G.data)
            assert report.f_score == 1.0 and report.scale_error <= 1e-7

    def test_subspace_distance_shrinks_with_samples(self):
        G = sim.gen_er_graph(8, 0.4, rng=0, require_connected=True)
        h = [1.0, 0.5]
        true_basis = diffused_basis(G, h)
        top = true_basis.vecs[:, -4:]  # span of the 4 strongest modes
        meds = []
        for p in (100, 1000, 10000):
            dists = []
            for seed in range(10):
                X = sim.gen_diffusion(G, h, p, rng=100 + seed)
                basis, _ = sid.estimate_eigenbasis(X)
                M = top.T @ basis.vecs[:, -4:]
                # sine of the largest principal angle between the spans
                dists.append(np.sqrt(max(0.0, 1 - np.min(
                    np.linalg.svd(M, compute_uv=False)) ** 2)))
            meds.append(np.median(dists))
        assert meds[0] > meds[1] > meds[2]

    @given(n=st.integers(4, 15), seed=st.integers(0, 10_000), p=st.integers(20, 5000))
    def test_unflagged_modes_within_davis_kahan(self, n, seed, p):
        # sin of the angle between mode k of the sample covariance and of
        # Sigma is at most 2 ||Sigma_hat - Sigma||_2 / min gap_k, the gaps
        # to Sigma's neighbouring eigenvalues (Yu, Wang & Samworth, "A
        # useful variant of the Davis-Kahan theorem", Biometrika 2015):
        # deterministic for the Sigma_hat the basis is computed from
        G = sim.gen_er_graph(n, 0.4, rng=seed, require_connected=True)
        Sigma = sim.diffusion_covariance(G, [1.0, 0.5, 0.2])
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], p, rng=seed + 1)
        basis, flags = sid.estimate_eigenbasis(X)
        vals, vecs = np.linalg.eigh(Sigma)
        gaps = np.minimum(np.diff(vals, prepend=-np.inf), np.diff(vals, append=np.inf))
        noise = np.linalg.norm(sid._as_covariance(X) - Sigma, 2)
        cos = np.abs(np.sum(basis.vecs * vecs, axis=0))
        sin = np.sqrt(np.maximum(0.0, 1.0 - cos ** 2))
        # eigh's own error in each direction: a few N eps ||Sigma|| / gap
        slack = 100 * n * np.finfo(float).eps * vals[-1] / gaps
        assert (sin <= 2.0 * noise / gaps + slack)[~flags].all()


class TestInferShift:
    def test_two_cycle(self):
        basis = gc.eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        S, lam, trace = sid.infer_shift(basis)
        np.testing.assert_allclose(S, [[0, 1], [1, 0]], atol=1e-8)

    def test_identity_basis_infeasible(self):
        with pytest.raises(Infeasible):
            sid.infer_shift(np.eye(3))

    @pytest.mark.parametrize("basis", [np.ones(5), np.ones((5, 5, 5))])
    def test_basis_not_2d_rejected(self, basis):
        # these once raised a raw IndexError and a numpy ValueError
        with pytest.raises(BadInput, match="N x N or N x K"):
            sid.infer_shift(basis)

    def test_exact_recovery_er_graph(self):
        G = sim.gen_er_graph(10, 0.3, rng=5, require_connected=True)
        basis = diffused_basis(G)
        S, lam, trace = sid.infer_shift(basis)
        c = np.trace(S.T @ G.data) / np.linalg.norm(S) ** 2
        assert np.abs(c * S - G.data).max() <= 1e-6


@given(n=st.integers(3, 12), p_edge=st.floats(0.3, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_exact_infer_shift_properties(n, p_edge, seed):
    G = sim.gen_er_graph(n, p_edge, rng=seed, require_connected=True)
    V = diffused_basis(G).vecs
    S, _, trace = sid.infer_shift(V, ShiftConstraintSet())
    assert trace.converged
    assert np.array_equal(S, S.T)
    assert S.min() >= 0.0 and not np.diag(S).any()
    assert S[:, 0].sum() == pytest.approx(1.0, abs=1e-12)
    off = V.T @ S @ V
    off_max = np.abs(off - np.diag(np.diag(off))).max()
    assert off_max <= 1e-9 * max(1.0, np.abs(S).max())


class TestInferShiftPartial:
    def test_full_basis_reduces_to_exact(self):
        G = sim.gen_er_graph(8, 0.4, rng=7, require_connected=True)
        basis = diffused_basis(G)
        S_full, _, _ = sid.infer_shift(basis)
        S_part, _, _ = sid.infer_shift(basis.vecs)
        assert np.abs(S_full - S_part).max() <= 1e-6

    def test_empty_basis_gives_sparsest_member(self):
        S, _, _ = sid.infer_shift(np.zeros((5, 0)))
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-6)

    def test_more_eigenvectors_help(self):
        errs = {2: [], 4: []}
        for seed in range(20):
            G = sim.gen_er_graph(6, 0.5, rng=400 + seed, require_connected=True)
            Sigma = sim.diffusion_covariance(G, [1.0, 0.5, 0.2])
            basis = gc.eigendecompose(Sigma)
            order = np.argsort(-np.abs(basis.vals))  # leading covariance modes
            for k in (2, 4):
                keep = basis.vecs[:, order[:k]]
                try:
                    S, _, _ = sid.infer_shift(keep)
                except Infeasible:
                    errs[k].append(1.0)
                    continue
                errs[k].append(scale_aligned_error(S, G.data))
        assert np.median(errs[4]) <= np.median(errs[2])


class TestPsdFilterRecover:
    def test_worked_example(self):
        H = sid.psd_filter_recover([[5.0, 4.0], [4.0, 5.0]], np.eye(2)).H
        np.testing.assert_allclose(H, [[2, 1], [1, 2]], atol=1e-10)

    def test_trivial_and_scalar_cases(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        Sw = M @ M.T + np.eye(4)
        np.testing.assert_allclose(sid.psd_filter_recover(Sw, Sw).H, np.eye(4),
                                   atol=1e-9)
        np.testing.assert_allclose(sid.psd_filter_recover(4 * Sw, Sw).H,
                                   2 * np.eye(4), atol=1e-9)

    def test_reconstructs_output_covariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 6
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            H = (Q * rng.uniform(0.2, 3.0, n)) @ Q.T
            M = rng.standard_normal((n, n))
            Sw = M @ M.T + np.eye(n)
            Sx = H @ Sw @ H.T
            est = sid.psd_filter_recover(Sx, Sw)
            assert est.psd
            assert np.linalg.norm(est.H @ Sw @ est.H.T - Sx) <= 1e-8 * \
                np.linalg.norm(Sx)
            assert np.linalg.norm(est.H - H) <= 1e-8 * np.linalg.norm(H)

    def test_singular_input_rejected(self):
        with pytest.raises(SingularInputCovariance):
            sid.psd_filter_recover(np.eye(3), np.diag([1.0, 1.0, 0.0]))


class TestPsdFilterLs:
    def test_single_process_matches_closed_form(self):
        rng = np.random.default_rng(10)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        H = (Q * rng.uniform(0.5, 2.0, 5)) @ Q.T
        M = rng.standard_normal((5, 5))
        Sw = M @ M.T + np.eye(5)
        Sx = H @ Sw @ H.T
        ls, trace = sid.psd_filter_ls([Sx], [Sw])
        closed = sid.psd_filter_recover(Sx, Sw)
        assert np.abs(ls.H - closed.H).max() <= 1e-6
        assert trace.status == "converged" and trace.iters_used >= 1
        # the start is the closed form: its one step moves H by rounding
        assert trace.kkt_residual <= 1e-9

    def test_identity_everything(self):
        est, trace = sid.psd_filter_ls([np.eye(3)], [np.eye(3)])
        np.testing.assert_allclose(est.H, np.eye(3), atol=1e-8)
        assert trace.converged

    def test_capped_fit_warns(self):
        rng = np.random.default_rng(12)
        Sx, Sw = [], []
        for _ in range(2):  # two processes no single filter fits exactly
            A, B = rng.standard_normal((2, 4, 4))
            Sx.append(A @ A.T + np.eye(4))
            Sw.append(B @ B.T + np.eye(4))
        with pytest.warns(UserWarning, match="1-iteration cap") as record:
            est, trace = sid.psd_filter_ls(Sx, Sw, sv.SolverConfig(max_iters=1))
        assert len(record) == 1 and est.psd
        assert trace.status == "max_iters" and not trace.converged
        assert trace.iters_used == 1

    def test_converged_residual_within_its_bound(self):
        rng = np.random.default_rng(13)
        Sx, Sw = [], []
        for _ in range(2):  # two processes no single filter fits exactly
            A, B = rng.standard_normal((2, 4, 4))
            Sx.append(A @ A.T + np.eye(4))
            Sw.append(B @ B.T + np.eye(4))
        est, trace = sid.psd_filter_ls(Sx, Sw)
        assert trace.status == "converged" and trace.iters_used > 1
        # the gradient-mapping residual of the returned H, from the inputs:
        # f is the mean of two squared misfits, L = sum of lam_max(Sw)^2
        Q = [sid.sqrt_psd(S) for S in Sw]
        R = [sid.sqrt_psd(q @ s @ q) for q, s in zip(Q, Sx)]
        t = 1.0 / sum(np.linalg.eigvalsh(S)[-1] ** 2 for S in Sw)
        H = est.H
        grad = sum(q @ (q @ H @ q - r) @ q for q, r in zip(Q, R))
        vals, vecs = np.linalg.eigh(H - t * grad)
        residual = np.linalg.norm(H - (vecs * np.maximum(vals, 0.0)) @ vecs.T) / t
        bound = sv.SolverConfig().tol * max(1.0, np.linalg.norm(H)) / t
        assert trace.kkt_residual <= bound
        # the reported residual, of the last step, bounds the returned H's
        assert residual <= trace.kkt_residual + 1e-6 * bound

    def test_joint_fit_beats_single_process_plugins(self):
        rng = np.random.default_rng(11)
        n = 4
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * rng.uniform(0.5, 2.0, n)) @ Q.T
        Sw = [np.eye(n), np.diag(rng.uniform(0.5, 3.0, n))]
        # noisy output covariances
        Sx = []
        for k in range(2):
            E = 0.05 * rng.standard_normal((n, n))
            Sx.append(H @ Sw[k] @ H.T + E @ E.T)
        joint, trace = sid.psd_filter_ls(Sx, Sw)
        assert trace.converged

        def objective(Hc):
            tot = 0.0
            for k in range(2):
                Qk = sid.sqrt_psd(Sw[k])
                Rk = sid.sqrt_psd(Qk @ Sx[k] @ Qk)
                tot += 0.5 * np.linalg.norm(Rk - Qk @ Hc @ Qk) ** 2
            return tot

        for k in range(2):
            single = sid.psd_filter_recover(Sx[k], Sw[k])
            assert objective(joint.H) <= objective(single.H) + 1e-9


class TestSymFilterSelect:
    def test_two_node_sign_recovery(self):
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        Sw = [np.eye(2), np.diag([1.0, 4.0])]
        Sx = [H @ S @ H.T for S in Sw]
        est, signs, info = sid.sym_filter_select(Sx, Sw)
        assert np.abs(est.H - H).max() <= 1e-8
        assert info["identifiable"]

    def test_indefinite_filter_recovered_up_to_sign(self):
        rng = np.random.default_rng(12)
        n = 5
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * np.array([1.5, -0.7, 2.0, -1.2, 0.4])) @ Q.T
        Sw = [np.eye(n), np.diag(rng.uniform(0.5, 3.0, n))]
        Sx = [H @ S @ H.T for S in Sw]
        est, signs, info = sid.sym_filter_select(Sx, Sw)
        err = min(np.abs(est.H - H).max(), np.abs(est.H + H).max())
        assert err <= 1e-8
        assert np.trace(est.H) >= 0

    def test_psd_filter_takes_positive_signs_for_white_input(self):
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        H = (Q * rng.uniform(0.3, 2.0, 4)) @ Q.T  # PSD
        Sw = [np.eye(4), np.diag(rng.uniform(0.5, 2.0, 4))]
        Sx = [H @ S @ H.T for S in Sw]
        est, signs, info = sid.sym_filter_select(Sx, Sw)
        np.testing.assert_allclose(signs[0], np.ones(4))

    def test_single_process_reports_tie(self):
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        est, signs, info = sid.sym_filter_select([H @ H], [np.eye(2)])
        assert info["identifiable"] is False
        assert info["all_tie"] is True

    def test_three_processes_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            H, Sw, Sx = _filter_draw(rng, 6, 3)
            est, signs, info = sid.sym_filter_select(Sx, Sw)
            assert min(np.abs(est.H - H).max(), np.abs(est.H + H).max()) <= 1e-8
            assert info["residual"] <= 1e-20 * len(Sw) ** 2 * np.sum(H * H)

    @pytest.mark.parametrize("n,m", [(30, 2), (100, 5)])
    def test_large_n_exact(self, n, m):
        H, Sw, Sx = _filter_draw(np.random.default_rng(n), n, m)
        est, signs, info = sid.sym_filter_select(Sx, Sw)
        assert min(np.abs(est.H - H).max(), np.abs(est.H + H).max()) <= 1e-8
        assert len(signs) == m and info["identifiable"]

    @pytest.mark.parametrize("n,m", [(3, 2), (8, 2), (4, 3), (6, 3)])
    def test_reaches_brute_force_minimum(self, n, m):
        H, Sw, Sx = _filter_draw(np.random.default_rng(20 + n), n, m)
        total = _BruteForce(Sx, Sw)
        scale = m * m * np.sum(H * H)
        assert total.min <= 1e-20 * scale
        est, signs, info = sid.sym_filter_select(Sx, Sw)
        assert total(signs) <= total.min + 1e-20 * scale

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_eigenvalue_exact(self, m):
        # a singular filter: the sign of its zero eigenvalue changes no
        # candidate and must not decide the others
        rng = np.random.default_rng(30 + m)
        for _ in range(10):
            H, Sw, Sx = _filter_draw(rng, 6, m, zeros=1)
            est, signs, info = sid.sym_filter_select(Sx, Sw)
            assert min(np.abs(est.H - H).max(), np.abs(est.H + H).max()) <= 1e-8

    @pytest.mark.parametrize("m", [2, 3])
    def test_rank_deficient_samples_reach_brute_force_minimum(self, m):
        # P = 3 < N = 6 samples per process leave each Sigma_x of rank 3;
        # on the informative signs the relaxation reaches the exhaustive
        # minimum in 79-88% of such draws (two runs of 100 draws for each
        # M)
        rng = np.random.default_rng(40 + m)
        n, p, hits = 6, 3, 0
        for _ in range(20):
            H, Sw, _ = _filter_draw(rng, n, m)
            Sx = []
            for S in Sw:
                X = H @ sid.sqrt_psd(S) @ rng.standard_normal((n, p))
                Sx.append(X @ X.T / p)
            total = _BruteForce(Sx, Sw)
            est, signs, info = sid.sym_filter_select(Sx, Sw)
            # the zero eigenvalues are rounding-sized, not exactly 0, in
            # the oracle's candidates
            hits += total(signs) <= total.min + 1e-6 * np.sum(H * H)
        assert hits >= 12

    def test_residual_is_pairwise_sum_of_returned_signs(self):
        # sampled output covariances, so the processes disagree
        rng = np.random.default_rng(14)
        n, m = 6, 3
        H, Sw, _ = _filter_draw(rng, n, m)
        Sx = []
        for S in Sw:
            X = H @ sid.sqrt_psd(S) @ rng.standard_normal((n, 200))
            Sx.append(X @ X.T / 200)
        est, signs, info = sid.sym_filter_select(Sx, Sw)
        cands = [_candidate(sx, sw, s) for sx, sw, s in zip(Sx, Sw, signs)]
        pairwise = sum(np.sum((cands[a] - cands[b]) ** 2)
                       for a, b in combinations(range(m), 2))
        assert info["residual"] > 0
        assert info["residual"] == pytest.approx(pairwise, rel=1e-10)
        np.testing.assert_allclose(est.H, np.mean(cands, axis=0), atol=1e-10)
        assert np.trace(est.H) >= 0


def _filter_draw(rng, n, m, zeros=0):
    """An indefinite symmetric filter (with ``zeros`` zero eigenvalues),
    white input plus m - 1 diagonal input covariances, and the exact
    output covariances."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spec = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
    spec[:zeros] = 0.0
    H = (Q * spec) @ Q.T
    Sw = [np.eye(n)] + [np.diag(rng.uniform(0.5, 3.0, n)) for _ in range(m - 1)]
    return H, Sw, [H @ S @ H for S in Sw]


def _candidate(Sx, Sw, s):
    """The solution of H Sw H = Sx with eigenvalue signs s, in ascending
    order of the eigenvalues of Sw^1/2 Sx Sw^1/2."""
    lam, U = np.linalg.eigh(Sw)
    W = (U * np.sqrt(lam)) @ U.T
    Wi = (U / np.sqrt(lam)) @ U.T
    mu, V = np.linalg.eigh(W @ Sx @ W)
    return Wi @ (V * (s * np.sqrt(np.maximum(mu, 0.0)))) @ V.T @ Wi


class _BruteForce:
    """The summed pairwise distance between the processes' candidates
    over every combination of their sign patterns, enumerated."""

    def __init__(self, Sx, Sw):
        m, n = len(Sx), Sx[0].shape[0]
        self.patterns = np.array(list(product((1.0, -1.0), repeat=n)))
        cands = [np.array([_candidate(sx, sw, s).ravel() for s in self.patterns])
                 for sx, sw in zip(Sx, Sw)]
        self.total = np.zeros((len(self.patterns),) * m)
        for a, b in combinations(range(m), 2):
            d2 = ((cands[a][:, None, :] - cands[b][None, :, :]) ** 2).sum(axis=2)
            shape = [1] * m
            shape[a] = shape[b] = len(self.patterns)
            self.total = self.total + d2.reshape(shape)
        self.min = self.total.min()

    def __call__(self, signs):
        rows = [np.flatnonzero((self.patterns == s).all(axis=1))[0] for s in signs]
        return self.total[tuple(rows)]


@pytest.mark.parametrize("fit", [sid.psd_filter_ls, sid.sym_filter_select])
class TestCovarianceLists:
    def test_sizes_differ_within_a_list(self, fit):
        with pytest.raises(BadDimension):
            fit([np.eye(3), np.eye(4)], [np.eye(3), np.eye(4)])

    def test_sizes_differ_between_lists(self, fit):
        with pytest.raises(BadDimension):
            fit([np.eye(3)], [np.eye(4)])

    @pytest.mark.parametrize("Sx,Sw", [([], []), ([np.eye(2)], []),
                                       ([np.eye(2)], [np.eye(2)] * 2)])
    def test_empty_or_unmatched_lists(self, fit, Sx, Sw):
        with pytest.raises(BadInput):
            fit(Sx, Sw)


class TestNetworkDeconvolve:
    def test_two_node_single_pole_filter(self):
        S = np.array([[0.0, 0.3], [0.3, 0.0]])
        T = S @ np.linalg.inv(np.eye(2) - S)
        vals = np.sort(np.linalg.eigvalsh(T))
        np.testing.assert_allclose(vals, sorted([0.3 / 0.7, -0.3 / 1.3]),
                                   atol=1e-12)
        Sh, _ = sid.network_deconvolve(T)
        assert scale_aligned_error(Sh, S) <= 1e-8

    def test_identity_filter_passthrough(self):
        G = sim.gen_er_graph(7, 0.4, rng=14, require_connected=True)
        Sh, _ = sid.network_deconvolve(G.data)
        assert scale_aligned_error(Sh, G.data) <= 1e-6

    def test_covariance_input_matches_stationary_path(self):
        G = sim.gen_er_graph(6, 0.5, rng=15, require_connected=True)
        Sigma = sim.diffusion_covariance(G, [1.0, 0.5, 0.2])
        S1, _ = sid.network_deconvolve(Sigma)
        basis, _ = sid.estimate_eigenbasis(Sigma)
        S2, _, _ = sid.infer_shift(basis)
        np.testing.assert_allclose(S1, S2, atol=1e-8)


class TestAutoEps:
    def test_exact_covariance_takes_zero_eps(self):
        G = sim.gen_er_graph(8, 0.4, rng=16, require_connected=True)
        Sigma = sim.diffusion_covariance(G, [1.0, 0.5])
        S, trace, meta = sid.infer_shift_from_signals(Sigma)
        assert meta["eps"] == 0.0
        assert scale_aligned_error(S, G.data) <= 1e-6

    def test_nearly_symmetric_square_input_is_signals(self):
        # 1e-8 asymmetry is far above the exact-covariance rule's 1e-10, so
        # the basis must treat the input as signals. eps does not read the
        # input's shape: the basis of M M' / 10 is the exact one perturbed
        # by about 1e-8, which meets the eps = 0 rows within HiGHS's 1e-7
        G = sim.gen_er_graph(10, 0.5, rng=16, require_connected=True)
        Sigma = sim.diffusion_covariance(G, [1.0, 0.5, 0.2])  # no zero entry
        M = Sigma + 1e-8 * np.random.default_rng(3).standard_normal((10, 10))
        basis, _ = sid.estimate_eigenbasis(M)
        np.testing.assert_allclose(basis.vals,
                                   np.linalg.eigvalsh(M @ M.T / 10), atol=1e-12)
        _, _, meta = sid.infer_shift_from_signals(M)
        assert meta["eps"] == 0.0

    def test_exact_inputs_take_the_eps_zero_solve(self, monkeypatch):
        # eps="auto" asks the eps = 0 solve first: an exact basis has a
        # member it diagonalizes, found in closed form with no gap computed
        calls = []
        gap = sv.spectral_gap
        monkeypatch.setattr(sv, "spectral_gap", lambda *a: calls.append(1) or gap(*a))
        G = sim.gen_er_graph(20, 0.3, rng=1, require_connected=True)
        V = diffused_basis(G).vecs
        S, lam, trace = sv.infer_shift(V, ShiftConstraintSet(), "auto")
        S0, lam0, trace0 = sv.infer_shift(V, ShiftConstraintSet(), 0.0)
        A = G.data * (0.5 / sim.spectral_radius(G.data))
        T = A @ np.linalg.inv(np.eye(20) - A)
        S_dec, trace_dec = sid.network_deconvolve(0.5 * (T + T.T), eps="auto")
        S0_dec, _ = sid.network_deconvolve(0.5 * (T + T.T))
        assert not calls
        for got, want in ((S, S0), (lam, lam0), (S_dec, S0_dec)):
            np.testing.assert_array_equal(got, want)
        for tr in (trace, trace_dec):
            assert tr.notes["eps"] == 0.0 and tr.converged
            assert tr.iters_used == 0 and tr.notes["lp_rounds"] == 0
        assert trace.notes == trace0.notes
        assert scale_aligned_error(S_dec, G.data) <= 1e-10

    def test_sample_covariance_input_matches_its_signals(self):
        # eps="auto" no longer reads a symmetric input as an exact
        # covariance: the sampled basis is infeasible at eps = 0 either way
        G = sim.gen_er_graph(20, 0.3, rng=1, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=2)
        S, trace, meta = sid.infer_shift_from_signals(X)
        S_cov, trace_cov, meta_cov = sid.infer_shift_from_signals(sample_covariance(X))
        assert meta["eps"] > 0 and meta_cov == meta
        np.testing.assert_array_equal(S_cov, S)
        assert trace_cov.notes == trace.notes

    def test_degenerate_covariance_routes_to_partial(self):
        # white covariance: every mode ambiguous, so no spectral
        # constraint remains and the sparsest member comes back
        S, trace, meta = sid.infer_shift_from_signals(np.eye(6))
        assert meta["partial"] and meta["degenerate_modes"] == 6
        assert np.abs(S).sum() == pytest.approx(2.0, abs=1e-6)

    def test_feasibility_gap_feasible_at_margin(self):
        G = sim.gen_er_graph(8, 0.4, rng=17, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5], 300, rng=18)
        basis, _ = sid.estimate_eigenbasis(X)
        gap = spectral_gap(basis.vecs)[0]
        S, lam, trace = sid.infer_shift(basis, eps=2.0 * gap)
        assert trace.converged

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        # both once returned after one ADMM iteration marked converged
        G = sim.gen_er_graph(8, 0.4, rng=17, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5], 300, rng=18)
        with pytest.raises(BadParameter, match="eps"):
            sid.infer_shift_from_signals(X, ShiftConstraintSet(), eps)

    def test_other_eps_strings_rejected(self):
        X = sim.gen_diffusion(sim.gen_er_graph(8, 0.4, rng=17, require_connected=True),
                              [1.0, 0.5], 300, rng=18)
        V = sid.estimate_eigenbasis(X)[0].vecs
        for eps in ("Auto", "0.1"):
            with pytest.raises(BadParameter, match="eps"):
                sid.infer_shift_from_signals(X, eps=eps)
        with pytest.raises(BadParameter, match="partial basis"):
            sv.infer_shift(V[:, :4], ShiftConstraintSet(), "auto")

    def test_signals_n100_certified_at_default_config(self):
        # the active-set walk from spectral_gap's point is certified (7
        # solves when measured), and a numeric eps equal to auto's walks
        # from phase 1's point to the same support
        rng = np.random.default_rng([1, 2])
        G = sim.gen_er_graph(100, 0.3, rng=rng, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=rng)
        S, trace, meta = sid.infer_shift_from_signals(X)
        assert trace.status == "certified" and 1 <= trace.iters_used <= 20
        assert trace.kkt_residual <= sv.SolverConfig().tol
        assert ShiftConstraintSet().violation(S) <= 1e-9
        basis, _ = sid.estimate_eigenbasis(X)
        cold, _, cold_trace = sv.infer_shift(basis.vecs, ShiftConstraintSet(), meta["eps"])
        assert cold_trace.notes == trace.notes and cold_trace.status == "certified"
        np.testing.assert_array_equal(S, cold)

    def test_numeric_eps_takes_the_walk(self, monkeypatch):
        G = sim.gen_er_graph(12, 0.3, rng=3, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 2000, rng=4)
        calls = []
        gap = sv.spectral_gap
        monkeypatch.setattr(sv, "spectral_gap", lambda *a: calls.append(1) or gap(*a))
        S, auto, meta = sid.infer_shift_from_signals(X)
        # one feasibility-gap call sets eps and starts the walk
        assert len(calls) == 1 and meta == {"eps": auto.notes["eps"]}
        assert auto.status == "certified" and auto.iters_used >= 1
        # a numeric eps starts from phase 1, with no gap call
        S_num, trace, meta_num = sid.infer_shift_from_signals(X, eps=meta["eps"])
        assert len(calls) == 1 and meta_num == meta
        np.testing.assert_array_equal(S_num, S)
        assert trace.notes == auto.notes and trace.status == "certified"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_signals_converge_at_default_config(self, seed):
        G = sim.gen_er_graph(30, 0.3, rng=seed, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=seed + 100)
        S, trace, meta = sid.infer_shift_from_signals(X)
        assert meta["eps"] > 0
        assert trace.converged
        assert ShiftConstraintSet().violation(S) <= 1e-9


class TestRobustObjectives:
    """The eps > 0 solve under each objective, on one sampled diffusion
    (eps = 0.1122 there; all three solves are certified)."""

    NORMS = {"l1": lambda S: np.abs(S).sum(),
             "linf": lambda S: np.abs(S).max(),
             "frobenius": np.linalg.norm}

    def test_each_objective_minimizes_its_own_norm(self):
        G = sim.gen_er_graph(12, 0.3, rng=5, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=15)
        V = sid.estimate_eigenbasis(X)[0].vecs
        sols = {}
        for obj in self.NORMS:
            S, trace, meta = sid.infer_shift_from_signals(X, objective=obj)
            assert trace.status == "certified"
            assert trace.kkt_residual <= sv.SolverConfig().tol
            assert ShiftConstraintSet().violation(S) <= 1e-9
            lam = np.diag(V.T @ S @ V)
            assert np.linalg.norm(S - (V * lam) @ V.T) <= meta["eps"] * (1 + 1e-9)
            sols[obj] = S
        for obj, norm in self.NORMS.items():
            own = norm(sols[obj])
            for other in sols.values():
                assert own <= norm(other) * (1 + 1e-7)

    def test_degenerate_modes_honour_the_objective(self):
        # a 6-cycle's diffusion covariance repeats four of its eigenvalues:
        # the partial basis takes the l1 and sup-norm LPs, and the
        # Frobenius objective falls back to l1, saying so
        W = np.roll(np.eye(6), 1, axis=1)
        cov = sim.diffusion_covariance(W + W.T, [1.0, 0.5, 0.2])
        sols = {}
        for obj in self.NORMS:
            S, trace, meta = sid.infer_shift_from_signals(cov, objective=obj)
            assert trace.status == "exact" and meta["degenerate_modes"] == 4
            assert ShiftConstraintSet().violation(S) <= 1e-9
            sols[obj] = S
            assert meta.get("objective") == ("l1" if obj == "frobenius" else None)
        assert np.abs(sols["linf"]).max() < np.abs(sols["l1"]).max() - 0.1
        assert np.abs(sols["l1"]).sum() <= np.abs(sols["linf"]).sum() + 1e-9
        np.testing.assert_array_equal(sols["frobenius"], sols["l1"])
        # the sup-norm LP's own optimum, with the same free block
        basis, flags = sid.estimate_eigenbasis(cov)
        S, _, _ = sv.infer_shift(basis.vecs[:, ~flags], objective="linf")
        np.testing.assert_array_equal(sols["linf"], S)
