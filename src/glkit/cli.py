"""Command-line interface.

Subcommands: ``simulate`` (synthetic graphs and signals), ``learn``
(every topology learner), ``eval`` (support metrics against a ground
truth), ``spectrum`` (GFT utilities). Signals travel as headerless CSV
(row = vertex), graphs as JSON edge lists; see the package README.

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver
infeasibility, 5 a solve that stopped at its cap or stalled (outputs
written).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import graphcore, metrics, netdyn, serialize, simulate, smoothlearn, spectralid, statnet
from .errors import BadK, BadParameter, DataError, GlkitError, Infeasible, NoMLE, SolverError
from .graphcore import ShiftKind, ShiftOperator
from .solvers import SolverConfig


def _load_config(path) -> SolverConfig:
    if path is None:
        return SolverConfig()
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadParameter(f"config {path} must hold a JSON object")
    known = SolverConfig.__dataclass_fields__.keys()
    bad = set(payload) - set(known)
    if bad:
        raise BadParameter(f"unknown config keys {sorted(bad)}")
    return SolverConfig(**payload)


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise BadParameter(f"bad numeric list {text!r}") from exc


def _parse_eps(text: str):
    """``--eps``: "auto" or a finite number."""
    if text == "auto":
        return text
    try:
        eps = float(text)
    except ValueError:
        eps = np.nan
    if not np.isfinite(eps):
        raise BadParameter(f"--eps must be 'auto' or a finite number, "
                           f"got {text!r}")
    return eps


def _emit_graph(path, W):
    """Write a ShiftOperator, or an array as an undirected adjacency."""
    shift = W if isinstance(W, ShiftOperator) else \
        ShiftOperator(np.asarray(W, float), ShiftKind.ADJACENCY)
    serialize.write_shift_any(path, shift)


def _default_graph(args, rng):
    if getattr(args, "graph", None):
        return serialize.read_shift_any(args.graph)
    return simulate.gen_er_graph(args.n, args.p_edge, rng=rng,
                                 require_connected=not args.allow_disconnected)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    rng = simulate.make_rng(args.seed)
    if args.generator == "er":
        G = simulate.gen_er_graph(args.n, args.p_edge, rng=rng,
                                  require_connected=not args.allow_disconnected)
        _emit_graph(args.output, G)
        return 0
    if args.generator == "sem":
        W = simulate.gen_er_digraph(args.n, args.p_edge, radius=args.radius,
                                    rng=rng)
        U = rng.standard_normal((args.n, args.p))
        X = simulate.gen_sem(W, np.eye(args.n), U, args.noise, rng)
        serialize.write_matrix_csv(args.output, X.data)
        if args.exo_out:
            serialize.write_matrix_csv(args.exo_out, U)
        if args.graph_out:
            _emit_graph(args.graph_out, W)
        return 0
    G = _default_graph(args, rng)
    L = graphcore.laplacian_from_weights(G.weights())
    if args.generator == "gmrf":
        theta = L.data + args.gamma * np.eye(G.n)
        X = simulate.sample_gmrf(theta, args.p, rng)
    elif args.generator == "diffusion":
        X = simulate.gen_diffusion(G, _parse_floats(args.filter), args.p,
                                   rng=rng)
    elif args.generator == "smooth":
        X = simulate.gen_smooth(L, args.p, args.noise, rng)
    else:
        raise BadParameter(f"unknown generator {args.generator!r}")
    serialize.write_matrix_csv(args.output, X.data)
    if args.graph_out:
        _emit_graph(args.graph_out, G)
    return 0


# ---------------------------------------------------------------------------
# learn


def _csv(args, path, flag: str, header: bool = False) -> np.ndarray:
    """The matrix CSV that ``flag`` names; a usage error when it is absent."""
    if path is None:
        raise BadParameter(f"learn {args.method} needs {flag}")
    return serialize.read_matrix_csv(path, header=header)


def cmd_learn(args) -> int:
    """Run one learner and print its one JSON record on stdout: the
    method; the status, iters_used, kkt_residual and scalar notes of the
    returned SolveTrace (null and {} for a learner that returns none);
    and the method's own fields. A solve that stopped at its cap or
    stalled exits 5, after its outputs and record are written."""
    config = _load_config(args.config)
    method, trace, fields = args.method, None, {}
    if method not in ("psd-filter", "sym-filter"):  # these read covariance lists
        X = _csv(args, args.input, "-i/--input", args.header)
    if args.k is None and method in ("edge-select", "spectral-partial"):
        raise BadParameter(f"learn {method} needs --k")
    if method in ("corr", "pcorr"):
        if method == "corr":
            table, W = statnet.correlation_network(X, args.q)
        else:
            table, W = statnet.partial_correlation_network(X, args.q,
                                                           ridge=args.ridge)
        _emit_graph(args.output, W)
        if args.table_out:
            cols = ("i", "j", "statistic", "p_value", "reject")
            serialize.write_records_json(
                args.table_out,
                {"method": table.method, "q": table.q, "flags": dict(table.flags)},
                "pairs", {c: getattr(table, c) for c in cols})
    elif method in ("glasso", "lgmrf"):
        lam = statnet.auto_lambda(*X.shape) if args.lam == "auto" else float(args.lam)
        if method == "glasso":
            theta, trace = statnet.graphical_lasso(X, lam, args.penalize_diagonal,
                                                   config)
            _emit_graph(args.output, ShiftOperator(theta, ShiftKind.PRECISION))
        else:
            L, gamma, trace = statnet.laplacian_gmrf(X, lam, config)
            _emit_graph(args.output, L)
            fields = {"gamma": gamma}
    elif method == "nlasso":
        lam = X.shape[1] * statnet.auto_lambda(*X.shape) if args.lam == "auto" else \
            float(args.lam)
        W, _, trace = statnet.neighborhood_lasso(X, lam, args.rule, config)
        _emit_graph(args.output, W)
    elif method == "dong":
        L, Y, trace = smoothlearn.dong_learn(X, args.alpha, args.beta, config)
        _emit_graph(args.output, L)
        if args.denoised_out:
            serialize.write_matrix_csv(args.denoised_out, Y)
    elif method == "kalofolias":
        Z = X if args.distances else smoothlearn.distance_matrix(X).Z
        W, trace = smoothlearn.kalofolias_learn(Z, args.alpha, args.beta, config)
        _emit_graph(args.output, W)
    elif method == "edge-select":
        if args.noisy:
            edges, Y, trace = smoothlearn.edge_select_noisy(X, args.k, args.alpha)
        else:
            edges, _ = smoothlearn.edge_select(X, args.k)
        W = np.zeros((X.shape[0], X.shape[0]))
        for i, j in edges:
            W[i, j] = W[j, i] = 1.0
        _emit_graph(args.output, W)
    elif method in ("spectral", "spectral-partial", "deconv"):
        if method == "deconv":
            eps = 0.0 if args.eps == "auto" else args.eps
            S, trace = spectralid.network_deconvolve(X, eps=eps, objective=args.objective,
                                                     config=config)
        elif method == "spectral-partial":
            basis, _ = spectralid.estimate_eigenbasis(X)
            if not 1 <= args.k <= basis.n:
                raise BadK(f"--k {args.k} outside 1..{basis.n}")
            S, _, trace = spectralid.infer_shift(basis.vecs[:, -args.k:])
            fields = {"kept": args.k}
        else:
            S, trace, meta = spectralid.infer_shift_from_signals(
                X, eps=args.eps, objective=args.objective, config=config)
            fields = {k: v for k, v in meta.items() if k != "eps"}  # eps is a note
        thresh = metrics.DEFAULT_SUPPORT_THRESHOLD * max(np.abs(S).max(), 1e-30)
        W = np.where(np.abs(S) > thresh, S, 0.0)
        _emit_graph(args.output, ShiftOperator(0.5 * (W + W.T), ShiftKind.ADJACENCY))
    elif method in ("psd-filter", "sym-filter"):
        # an absent flag reads as [None], which _csv reports as a usage error
        Sx = [_csv(args, p, "--xcov") for p in args.xcov or [None]]
        Sw = [_csv(args, p, "--wcov") for p in args.wcov or [None]]
        if method == "psd-filter":
            est, trace = spectralid.psd_filter_ls(Sx, Sw, config=config)
            fields = {"psd": est.psd, "provenance": est.provenance}
        else:
            est, _, fields = spectralid.sym_filter_select(Sx, Sw)
        serialize.write_matrix_csv(args.output, est.H)
    elif method in ("sem", "dsem"):
        data = netdyn.CascadeData(X, _csv(args, args.exo, "--exo"))
        if method == "sem":
            W, omega, trace = netdyn.sem_fit(data, args.alpha, config)
            _emit_graph(args.output, W)
            fields = {"omega": list(omega)}
        else:
            traj = netdyn.dynamic_sem_track(data, args.gamma, args.alpha, config,
                                            emit_every=args.emit_every)
            trace = traj.trace
            _emit_graph(args.output,
                        ShiftOperator(traj.weights[-1], ShiftKind.GENERIC,
                                      directed=True))
            if args.trajectory_out:
                serialize.write_report_json(args.trajectory_out, {
                    "times": traj.times,
                    "edge_counts": traj.edge_counts,
                    "objectives": traj.objectives,
                })
    elif method == "svarm":
        samples = X.shape[1] - args.lags  # svarm_fit's objective sums over these
        if args.lam != "auto":
            lam = float(args.lam)
        elif args.lags >= 1 and samples >= 2:  # svarm_fit rejects the rest
            lam = samples * statnet.auto_lambda(X.shape[0] * args.lags, samples)
        else:
            lam = 0.0
        edges, _, trace = netdyn.svarm_fit(X, args.lags, lam, args.rule, config)
        _emit_graph(args.output,
                    ShiftOperator(edges.astype(float), ShiftKind.GENERIC,
                                  directed=True))
    else:
        raise BadParameter(f"unknown learn method {method!r}")
    record = {"method": method, "status": None, "iters_used": None,
              "kkt_residual": None, "notes": {}}
    if trace is not None:
        record.update(status=trace.status, iters_used=trace.iters_used,
                      kkt_residual=trace.kkt_residual,
                      notes={k: v for k, v in trace.notes.items()
                             if isinstance(v, (int, float))})
    print(json.dumps({**record, **fields}))
    return 5 if trace is not None and not trace.converged else 0


# ---------------------------------------------------------------------------
# eval / spectrum


def cmd_eval(args) -> int:
    est = serialize.read_shift_any(args.input)
    truth = serialize.read_shift_any(args.truth)
    report = metrics.evaluate(est.weights(), truth.weights(),
                              threshold=args.threshold)
    payload = report.as_dict()
    text = json.dumps(payload, indent=1)
    if args.output:
        serialize.write_report_json(args.output, payload)
    print(text)
    return 0


def cmd_spectrum(args) -> int:
    G = serialize.read_shift_any(args.graph)
    shift = G if G.kind is ShiftKind.LAPLACIAN else \
        graphcore.laplacian_from_weights(G.weights())
    basis = graphcore.eigendecompose(shift)
    if args.op == "tv":
        X = serialize.read_matrix_csv(args.input)
        vals = [graphcore.total_variation(x, shift) for x in X.T]
        print(json.dumps({"total_variation": vals}))
        return 0
    if args.op == "psd":
        X = serialize.read_matrix_csv(args.input)
        cov = statnet.sample_covariance(X)
        p = graphcore.graph_psd(cov, basis, score_threshold=np.inf)
        serialize.write_matrix_csv(args.output, p[None, :])
        return 0
    X = serialize.read_matrix_csv(args.input)
    if args.op == "gft":
        out = np.column_stack([graphcore.gft(x, basis) for x in X.T])
    elif args.op == "igft":
        out = np.column_stack([graphcore.igft(x, basis) for x in X.T])
    elif args.op == "reconstruct":
        cols, errs = [], []
        for x in X.T:
            xh, rel = graphcore.bandlimit_reconstruct(x, basis, args.k,
                                                      args.order)
            cols.append(xh)
            errs.append(rel)
        out = np.column_stack(cols)
        print(json.dumps({"relative_errors": errs}))
    else:
        raise BadParameter(f"unknown spectrum op {args.op!r}")
    serialize.write_matrix_csv(args.output, out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="glk", description="Graph topology inference toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic graphs/signals")
    sim.add_argument("generator",
                     choices=["er", "gmrf", "diffusion", "smooth", "sem"])
    sim.add_argument("--n", type=int, default=10)
    sim.add_argument("--p", type=int, default=100, help="sample count")
    sim.add_argument("--p-edge", type=float, default=0.3)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--gamma", type=float, default=0.5,
                     help="diagonal load for gmrf precision")
    sim.add_argument("--filter", default="1,0.5,0.2",
                     help="diffusion filter taps, comma separated")
    sim.add_argument("--noise", type=float, default=0.0)
    sim.add_argument("--radius", type=float, default=0.5,
                     help="spectral radius of the sem network matrix")
    sim.add_argument("--graph", help="use this graph instead of drawing one")
    sim.add_argument("--allow-disconnected", action="store_true")
    sim.add_argument("-o", "--output", required=True)
    sim.add_argument("--graph-out")
    sim.add_argument("--exo-out")
    sim.set_defaults(func=cmd_simulate)

    lrn = sub.add_parser("learn", help="fit a graph to observed signals")
    lrn.add_argument("method", choices=[
        "corr", "pcorr", "glasso", "lgmrf", "nlasso", "dong", "kalofolias",
        "edge-select", "spectral", "spectral-partial", "psd-filter",
        "sym-filter", "deconv", "sem", "svarm", "dsem"])
    lrn.add_argument("-i", "--input", help="signal/covariance CSV")
    lrn.add_argument("-o", "--output", required=True)
    lrn.add_argument("--header", action="store_true",
                     help="input CSV carries a header row")
    lrn.add_argument("--q", type=float, default=0.05, help="FDR level")
    lrn.add_argument("--ridge", action="store_true",
                     help="diagonal-load singular covariances (pcorr)")
    lrn.add_argument("--table-out", help="write the test table JSON (corr/pcorr)")
    lrn.add_argument("--lambda", dest="lam", default="auto",
                     help="l1 penalty, or 'auto' for 2 sqrt(log N / P)")
    lrn.add_argument("--penalize-diagonal", action="store_true")
    lrn.add_argument("--rule", choices=["or", "and"], default="or")
    lrn.add_argument("--alpha", type=float, default=1.0)
    lrn.add_argument("--beta", type=float, default=1.0)
    lrn.add_argument("--gamma", type=float, default=0.9,
                     help="forgetting factor (dsem)")
    lrn.add_argument("--k", type=int,
                     help="edge budget (edge-select) / kept leading eigenvectors "
                          "(spectral-partial); required by both")
    lrn.add_argument("--noisy", action="store_true",
                     help="edge-select: alternate with denoising")
    lrn.add_argument("--distances", action="store_true",
                     help="kalofolias: input is already a distance matrix")
    lrn.add_argument("--eps", default="auto",
                     help="spectral/deconv: mismatch tolerance, or 'auto' (deconv: 0)")
    lrn.add_argument("--objective", choices=["l1", "frobenius", "linf"],
                     default="l1")
    lrn.add_argument("--xcov", action="append", default=[],
                     help="output covariance CSV (repeatable)")
    lrn.add_argument("--wcov", action="append", default=[],
                     help="input covariance CSV (repeatable)")
    lrn.add_argument("--exo", help="exogenous input CSV (sem/dsem)")
    lrn.add_argument("--lags", type=int, default=1)
    lrn.add_argument("--emit-every", type=int, default=1)
    lrn.add_argument("--denoised-out")
    lrn.add_argument("--trajectory-out")
    lrn.add_argument("--config")
    lrn.set_defaults(func=cmd_learn)

    ev = sub.add_parser("eval", help="score an estimate against a truth")
    ev.add_argument("-i", "--input", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--threshold", type=float, default=None)
    ev.add_argument("-o", "--output")
    ev.set_defaults(func=cmd_eval)

    sp = sub.add_parser("spectrum", help="GFT / PSD / TV utilities")
    sp.add_argument("--op", choices=["gft", "igft", "tv", "psd", "reconstruct"],
                    required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", default="spectrum_out.csv")
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--order", choices=["magnitude", "freq"],
                    default="magnitude")
    sp.set_defaults(func=cmd_spectrum)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if hasattr(args, "eps"):
            args.eps = _parse_eps(args.eps)
        return args.func(args)
    except (BadParameter, BadK) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (Infeasible, NoMLE, SolverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except (DataError, GlkitError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
