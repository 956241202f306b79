"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them) and asserts the stated tolerance. Tolerances are fixed here, not
calibrated at runtime.
"""

import numpy as np
import pytest

import glkit.graphcore as gc
import glkit.metrics as mt
import glkit.netdyn as nd
import glkit.simulate as sim
import glkit.smoothlearn as sl
import glkit.spectralid as sid
import glkit.statnet as st
from glkit.solvers import ShiftConstraintSet, SolverConfig


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def scale_aligned_maxabs(S_hat, S_true) -> float:
    c = float((S_hat * S_true).sum()) / max(float((S_hat * S_hat).sum()), 1e-300)
    return float(np.abs(c * S_hat - S_true).max())


DIFFUSION_TAPS = [1.0, 0.5, 0.2]
TIGHT = SolverConfig(max_iters=40000, tol=1e-10)


def lp_reference_shift(V):
    """Independent linear-programming solution of the l1-minimal shift
    with eigenbasis V over the first-node adjacency set (oracle used to
    certify that a recovery failure is the criterion's, not the
    solver's)."""
    from scipy.optimize import linprog

    n = V.shape[0]
    P = np.einsum("ik,jk->ijk", V, V).reshape(n * n, n)
    iu, ju = np.triu_indices(n, 1)
    c = P.reshape(n, n, n)[iu, ju].sum(axis=0) * 2.0
    a_eq = [P[i * n + i] for i in range(n)]
    b_eq = [0.0] * n
    a_eq.append(sum(P[j * n] for j in range(n)))
    b_eq.append(1.0)
    a_ub = [-P[i * n + j] for i, j in zip(iu, ju)]
    res = linprog(c, A_ub=np.vstack(a_ub), b_ub=np.zeros(len(a_ub)),
                  A_eq=np.vstack(a_eq), b_eq=np.asarray(b_eq),
                  bounds=(None, None), method="highs")
    return (V * res.x) @ V.T if res.status == 0 else None


def test_criterion_01_spectral_template_exactness():
    successes, excused_degenerate, excused_oracle = 0, 0, 0
    failures = []
    for seed in range(100):
        G = sim.gen_er_graph(10, 0.3, rng=seed, require_connected=True)
        Sigma = sim.diffusion_covariance(G, DIFFUSION_TAPS)
        basis, degenerate = sid.estimate_eigenbasis(Sigma)
        S, lam, trace = sid.infer_shift(basis, ShiftConstraintSet(),
                                        config=TIGHT)
        err = scale_aligned_maxabs(S, G.data)
        if err <= 1e-6:
            successes += 1
        elif degenerate.any():
            excused_degenerate += 1
        else:
            # certify: the failure must be the l1 criterion's (solver
            # output equals the independent LP optimum), never a loose
            # solve
            oracle = lp_reference_shift(basis.vecs)
            if oracle is not None and np.abs(S - oracle).max() <= 1e-5:
                excused_oracle += 1
            else:
                failures.append((seed, err))
    ok = successes >= 95 and not failures
    report("criterion 1 (spectral-template exactness)", ok,
           f"{successes}/100 exact, {excused_degenerate} degenerate-excused, "
           f"{excused_oracle} oracle-certified non-identifiable, "
           f"uncertified failures: {failures}")


def test_criterion_02_robustness_monotonicity():
    G = sim.gen_er_graph(10, 0.3, rng=42, require_connected=True)
    medians = []
    for p in (100, 1000, 10000):
        errs = []
        for seed in range(20):
            X = sim.gen_diffusion(G, DIFFUSION_TAPS, p, rng=5000 + seed)
            S, trace, meta = sid.infer_shift_from_signals(X)
            errs.append(mt.scale_aligned_error(S, G.data))
        medians.append(float(np.median(errs)))
    ok = medians[0] > medians[1] > medians[2]
    report("criterion 2 (robustness monotonicity)", ok,
           f"median errors across P=1e2,1e3,1e4: "
           f"{[round(m, 4) for m in medians]}")


def chain_precision(n, rho=0.4):
    T = np.eye(n)
    for i in range(n - 1):
        T[i, i + 1] = T[i + 1, i] = -rho
    return T


def test_criterion_03_graphical_lasso():
    # unpenalized consistency with the matrix inverse
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    theta0 = M @ M.T / 5 + np.eye(5)
    X = sim.sample_gmrf(theta0, 10_000, rng=1)
    Sigma = st.sample_covariance(X)
    theta, _ = st.graphical_lasso(Sigma, 0.0)
    inv = np.linalg.inv(Sigma)
    rel = np.linalg.norm(theta - inv) / np.linalg.norm(inv)
    # support recovery on the chain at the operator-norm penalty rate
    lam = st.auto_lambda(10, 5000)
    truth = np.abs(chain_precision(10) - np.diag(np.diag(chain_precision(10)))) > 0
    fs = []
    for seed in range(20):
        Xc = sim.sample_gmrf(chain_precision(10), 5000, rng=100 + seed)
        th, _ = st.graphical_lasso(Xc, lam)
        est = np.abs(th - np.diag(np.diag(th))) > lam / 2  # shrinkage floor
        tp = (est & truth).sum()
        fp = (est & ~truth).sum()
        fn = (~est & truth).sum()
        fs.append(2 * tp / max(2 * tp + fp + fn, 1))
    ok = rel <= 1e-4 and np.median(fs) >= 0.9
    report("criterion 3 (graphical lasso)", ok,
           f"lam=0 relative error {rel:.2e}, chain support median F "
           f"{np.median(fs):.3f}")


def test_criterion_04_neighborhood_glasso_agreement():
    lam_g = st.auto_lambda(10, 5000)
    iu = np.triu_indices(10, 1)
    worst = 1.0
    for seed in range(10):
        X = sim.sample_gmrf(chain_precision(10), 5000, rng=200 + seed).data
        th, _ = st.graphical_lasso(X, lam_g)
        gl = np.abs(th - np.diag(np.diag(th))) > lam_g / 2
        lam_n = X.shape[1] * lam_g
        for rule in ("or", "and"):
            W, _, _ = st.neighborhood_lasso(X, lam_n, rule)
            agree = float(np.mean(gl[iu] == (W.data[iu] > 0)))
            worst = min(worst, agree)
    ok = worst >= 0.8
    report("criterion 4 (neighborhood/glasso agreement)", ok,
           f"worst pairwise agreement over 10 seeds x both rules: {worst:.3f}")


def test_criterion_05_fdr_control():
    # 16 nodes: two disjoint 5-cliques via shared factors (20 correlated
    # pairs), 6 free nodes; the remaining 100 pairs are independent nulls
    rng = np.random.default_rng(3)
    cliques = [list(range(0, 5)), list(range(5, 10))]
    true_pairs = {(i, j) for c in cliques for i in c for j in c if i < j}
    fdps = []
    power = []
    for _ in range(200):
        X = rng.standard_normal((16, 60))
        for c in cliques:
            X[c] = rng.standard_normal(60) + X[c]  # common factor
        table, _ = st.correlation_network(X, q=0.1)
        rejected = set(zip(table.i[table.reject].tolist(),
                           table.j[table.reject].tolist()))
        r = len(rejected)
        false = len(rejected - true_pairs)
        fdps.append(false / r if r else 0.0)
        power.append(len(rejected & true_pairs) / len(true_pairs))
    fdr = float(np.mean(fdps))
    ok = fdr <= 0.12 and np.mean(power) > 0.5
    report("criterion 5 (FDR control)", ok,
           f"empirical FDR {fdr:.4f} over 200 runs (q=0.1, 100/120 null), "
           f"mean power {np.mean(power):.2f}")


def test_criterion_06_edge_selection_oracle():
    from itertools import combinations
    rng = np.random.default_rng(4)
    pairs = list(combinations(range(6), 2))
    mismatches = 0
    for trial in range(50):
        X = rng.standard_normal((6, int(rng.integers(2, 8))))
        Z = sl.distance_matrix(X).Z
        for K in range(1, 6):
            edges, _ = sl.edge_select(X, K)
            best = min(combinations(pairs, K),
                       key=lambda combo: sum(Z[i, j] for i, j in combo))
            if set(edges) != set(best):
                mismatches += 1
    ok = mismatches == 0
    report("criterion 6 (edge-selection oracle equivalence)", ok,
           f"{mismatches} mismatches over 50 signal sets x K=1..5")


def test_criterion_07_kalofolias_closed_forms():
    rng = np.random.default_rng(5)
    # scalar-root oracle on two-vertex problems
    worst_gap = 0.0
    pd_cfg = SolverConfig(max_iters=20000, tol=1e-10)
    for _ in range(20):
        z = float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.0, 3.0))
        Z = np.array([[0.0, z], [z, 0.0]])
        W, _ = sl.kalofolias_learn(Z, alpha, beta, pd_cfg)
        root = alpha / z if beta == 0 else \
            (-z + np.sqrt(z * z + 4 * alpha * beta)) / (2 * beta)
        worst_gap = max(worst_gap, abs(W[0, 1] - root))
    # feasibility and strictly positive degrees on random instances
    degree_ok = True
    for k in range(100):
        n = int(rng.integers(4, 10))
        X = rng.standard_normal((n, 12))
        W, _ = sl.kalofolias_learn(sl.distance_matrix(X), 1.0, 0.5)
        degree_ok &= bool(W.min() >= 0 and np.abs(np.diag(W)).max() == 0
                          and W.sum(axis=1).min() > 0)
    # beta = 0 is the sparsest point of the beta grid
    sparsity_ok = True
    for k in range(20):
        X = rng.standard_normal((7, 10))
        Z = sl.distance_matrix(X)
        counts = {}
        for beta in (0.0, 0.1, 1.0):
            W, _ = sl.kalofolias_learn(Z, 1.0, beta)
            counts[beta] = int((W[np.triu_indices(7, 1)]
                                > 1e-6 * max(W.max(), 1e-30)).sum())
        sparsity_ok &= counts[0.0] <= counts[0.1] and counts[0.0] <= counts[1.0]
    ok = worst_gap <= 1e-6 and degree_ok and sparsity_ok
    report("criterion 7 (log-barrier weight learning)", ok,
           f"scalar-root gap {worst_gap:.2e}, degrees positive: {degree_ok}, "
           f"beta=0 sparsest: {sparsity_ok}")


def test_criterion_08_smoothness_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, 10))
        X = rng.standard_normal((n, p))
        iu, ju = np.triu_indices(n, 1)
        w = np.where(rng.random(iu.size) < 0.7,
                     rng.uniform(0.1, 2.0, iu.size), 0.0)
        W = np.zeros((n, n))
        W[iu, ju] = w
        W[ju, iu] = w
        L = np.diag(W.sum(axis=1)) - W
        lhs = float(np.trace(X.T @ L @ X))
        rhs = 0.5 * float(np.abs(W * sl.distance_matrix(X).Z).sum())
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    ok = worst <= 1e-8
    report("criterion 8 (smoothness/sparsity identity)", ok,
           f"worst relative gap over 1000 draws: {worst:.2e}")


def test_criterion_09_psd_filter_identification():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * rng.uniform(0.2, 3.0, n)) @ Q.T
        M = rng.standard_normal((n, n))
        Sw = M @ M.T + np.eye(n)
        est = sid.psd_filter_recover(H @ Sw @ H.T, Sw)
        worst = max(worst, np.linalg.norm(est.H - H) / np.linalg.norm(H))
    ok = worst <= 1e-8
    report("criterion 9 (PSD filter identification)", ok,
           f"worst relative error over 20 instances: {worst:.2e}")


def test_criterion_10_symmetric_filter_sign_search():
    rng = np.random.default_rng(8)
    worst = 0.0
    for m in (2, 3):
        for _ in range(10):
            n = 6
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spec = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
            H = (Q * spec) @ Q.T
            Sw = [np.eye(n)] + [np.diag(rng.uniform(0.5, 3.0, n))
                                for _ in range(m - 1)]
            Sx = [H @ S @ H.T for S in Sw]
            est, signs, info = sid.sym_filter_select(Sx, Sw)
            err = min(np.abs(est.H - H).max(), np.abs(est.H + H).max())
            worst = max(worst, err)
    # single-process runs must flag the 2^N tie
    Hp = np.array([[2.0, 1.0], [1.0, 2.0]])
    _, _, single = sid.sym_filter_select([Hp @ Hp], [np.eye(2)])
    ok = worst <= 1e-8 and single["identifiable"] is False and single["all_tie"]
    report("criterion 10 (symmetric filter sign search)", ok,
           f"worst recovery error (M = 2 and 3) {worst:.2e}, M=1 all-tie "
           f"reported: {single['all_tie']}")


def test_criterion_11_network_deconvolution():
    worst = 0.0
    for seed in range(20):
        G = sim.gen_er_graph(8, 0.35, rng=900 + seed, require_connected=True)
        if (G.data[:, 0] > 0).sum() < 2:
            # the first-node scale normalization is ill-posed when vertex
            # 1 hangs off a single weak edge; redraw those instances
            G = sim.gen_er_graph(8, 0.35, rng=3000 + seed,
                                 require_connected=True)
        S = G.data * (0.5 / sim.spectral_radius(G.data))
        T = S @ np.linalg.inv(np.eye(8) - S)
        Sh, trace = sid.network_deconvolve(T, config=TIGHT)
        worst = max(worst, mt.scale_aligned_error(Sh, S))
    ok = worst <= 1e-6
    report("criterion 11 (network deconvolution)", ok,
           f"worst scale-aligned error over 20 graphs: {worst:.2e}")


def test_criterion_12_dynamic_sem_tracking():
    N, T, C, gamma, alpha = 12, 60, 4, 0.9, 4.0
    final_f, jump_ratios = [], []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        WA = sim.gen_er_digraph(N, 0.15, radius=0.45, rng=rng)
        WB = sim.gen_er_digraph(N, 0.35, radius=0.45, rng=rng)
        X = np.zeros((N, T, C))
        U = rng.standard_normal((N, T, C))
        for t in range(T):
            W = WA.data if t < T // 2 else WB.data
            for c in range(C):
                X[:, t, c] = np.linalg.solve(
                    np.eye(N) - W, U[:, t, c] + 0.05 * rng.standard_normal(N))
        data = nd.CascadeData(X, U)
        traj = nd.dynamic_sem_track(data, gamma, alpha)
        true = WB.data != 0
        fs = []
        for W in traj.weights[3 * T // 4:]:
            est = W != 0
            tp = (est & true).sum()
            fp = (est & ~true).sum()
            fn = (~est & true).sum()
            fs.append(2 * tp / max(2 * tp + fp + fn, 1))
        final_f.append(float(np.median(fs)))
        change = abs(np.count_nonzero(WB.data) - np.count_nonzero(WA.data))
        pre = traj.edge_counts[T // 2 - 1]
        jump = max(abs(traj.edge_counts[t] - pre)
                   for t in range(T // 2, T // 2 + 5))
        jump_ratios.append(jump / max(change, 1))
    # gamma = 1 batch equivalence on one instance
    rng = np.random.default_rng(77)
    Wb = sim.gen_er_digraph(6, 0.3, radius=0.4, rng=rng)
    U = rng.standard_normal((6, 30, 2))
    X = np.zeros((6, 30, 2))
    for t in range(30):
        for c in range(2):
            X[:, t, c] = np.linalg.solve(np.eye(6) - Wb.data,
                                         U[:, t, c]
                                         + 0.05 * rng.standard_normal(6))
    data = nd.CascadeData(X, U)
    traj1 = nd.dynamic_sem_track(data, 1.0, 1.0)
    batch, _, _ = nd.sem_fit(data, 1.0)
    batch_gap = float(np.abs(traj1.weights[-1] - batch.data).max())
    ok = (np.median(final_f) >= 0.8
          and np.median(jump_ratios) >= 0.5
          and batch_gap <= 1e-6)
    report("criterion 12 (dynamic SEM tracking)", ok,
           f"median final-quarter F {np.median(final_f):.3f}, median jump "
           f"ratio {np.median(jump_ratios):.2f}, gamma=1 batch gap "
           f"{batch_gap:.2e}")


def test_criterion_13_gsp_primitive_suite():
    rng = np.random.default_rng(10)
    G = sim.gen_er_graph(9, 0.5, rng=11, require_connected=True)
    L = gc.laplacian_from_weights(G.data)
    basis = gc.eigendecompose(L)
    x = rng.standard_normal(9)
    # round trip and Parseval
    xt = gc.gft(x, basis)
    rt = float(np.abs(gc.igft(xt, basis) - x).max())
    parseval = abs(np.linalg.norm(xt) - np.linalg.norm(x))
    # eigenvector energies
    tv_gap = max(abs(gc.total_variation(basis.vecs[:, k], L) - basis.vals[k])
                 for k in range(9))
    # filter-shift commutation
    h = rng.standard_normal(4)
    H = gc.filter_matrix(L, h)
    comm = np.linalg.norm(H @ L.data - L.data @ H) / (
        np.linalg.norm(H) * np.linalg.norm(L.data))
    # stationarity of filtered white noise
    score = gc.stationarity_score(H @ H.T, basis)
    # bandlimited reconstruction with four active modes
    coeffs = np.zeros(9)
    coeffs[[1, 3, 4, 7]] = rng.uniform(0.5, 2.0, 4)
    xb = gc.igft(coeffs, basis)
    _, rel = gc.bandlimit_reconstruct(xb, basis, 4)
    ok = (rt <= 1e-10 and parseval <= 1e-10 and tv_gap <= 1e-9
          and comm <= 1e-8 and score <= 1e-10 and rel <= 1e-12)
    report("criterion 13 (GSP primitive suite)", ok,
           f"roundtrip {rt:.1e}, parseval {parseval:.1e}, tv {tv_gap:.1e}, "
           f"commutation {comm:.1e}, stationarity {score:.1e}, "
           f"bandlimited {rel:.1e}")
