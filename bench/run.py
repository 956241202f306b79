#!/usr/bin/env python3
"""glkit benchmark: four workloads through glkit's public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest --workload NAME --seed N

Workloads: ``regress``, ``spectral``, ``precision-smooth`` (in-process
learner calls) and ``cli`` (``glk`` subprocesses). Each runs in one
process, one job after another (a closed loop with one client), with the
BLAS thread count pinned to min(2, nproc). Inputs come from ``--seed``
during set-up. Passes over the workload's jobs repeat until ``--seconds``
is spent; every output is checked, and one oracle per workload runs once.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then traced passes, and prints the per-layer
metrics. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record and
(traced) the raw spans go to ``bench/out/``. The exit code is 0 only
when every job and the oracle pass their checks; it is 2, with nothing
printed, when the checkout has no ``src/glkit`` to benchmark.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import tracer as tr  # noqa: E402  (standard library only)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("regress", "spectral", "precision-smooth", "cli")
SETUP_SAMPLES = 3       # set-ups per run; setup_s is their median
MIN_PASSES = 2          # timed passes per run, even past --seconds

# end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "f_score": ("1", "higher"),
    "scale_err": ("1", "lower"),
    "converged_frac": ("1", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed with the others, but not in the JSON: it is 0 on a good run
REPORT_ONLY = {"failed_frac": ("1", "lower")}

# per-layer metrics: layer -> stats (see tracer.TRACED for the layers)
PER_LAYER = [
    ("solvers.lasso_cd", ("calls", "self_s")),
    ("solvers.lasso_cd_gram", ("calls", "self_s", "iters", "converged_frac")),
    ("solvers.admm_l1_spectral", ("calls", "self_s", "iters", "converged_frac")),
    ("solvers.spectral_gap", ("calls", "self_s")),
    ("solvers.SpectralCoupling.project", ("calls", "self_s")),
    ("solvers.ShiftConstraintSet.project", ("calls", "self_s")),
    ("scipy.optimize.linprog", ("calls", "self_s")),
    ("solvers.prox_neg_logdet", ("calls", "self_s")),
    ("solvers.primal_dual_graph", ("calls", "self_s", "iters", "converged_frac")),
    ("statnet.neighborhood_lasso", ("total_s", "self_s")),
    ("statnet.graphical_lasso", ("total_s", "self_s", "iters")),
    ("statnet.laplacian_gmrf", ("total_s", "self_s", "iters")),
    ("statnet.sample_covariance", ("calls", "self_s")),
    ("smoothlearn.kalofolias_learn", ("total_s",)),
    ("smoothlearn.dong_learn", ("total_s", "iters")),
    ("smoothlearn.distance_matrix", ("calls", "self_s")),
    ("spectralid.infer_shift_from_signals", ("total_s",)),
    ("spectralid.network_deconvolve", ("total_s",)),
    ("spectralid.estimate_eigenbasis", ("self_s",)),
    ("netdyn.sem_fit", ("total_s", "self_s")),
    ("netdyn.svarm_fit", ("total_s", "self_s")),
    ("netdyn.dynamic_sem_track", ("total_s", "self_s")),
    ("graphcore.eigendecompose", ("calls", "self_s")),
    ("simulate.gen_er_graph", ("self_s",)),
    ("simulate.gen_er_digraph", ("self_s",)),
    ("simulate.sample_gmrf", ("self_s",)),
    ("simulate.gen_diffusion", ("self_s",)),
    ("simulate.gen_smooth", ("self_s",)),
    ("simulate.gen_sem", ("self_s",)),
    ("simulate.diffusion_covariance", ("self_s",)),
    ("metrics.evaluate", ("calls", "self_s")),
    ("serialize.read_matrix_csv", ("calls", "self_s", "bytes")),
    ("serialize.write_matrix_csv", ("calls", "self_s", "bytes")),
    ("serialize.read_graph_json", ("calls", "self_s", "bytes")),
    ("serialize.write_graph_json", ("calls", "self_s", "bytes")),
    ("cli.main", ("self_s",)),
]
# run-level per-layer metrics: name -> (unit, better)
RUN_LEVEL = {
    "cli.spawn_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}
STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
              "total_s": ("s", "lower"), "iters": ("count", "lower"),
              "converged_frac": ("1", "higher"), "bytes": ("B", "lower")}


def per_layer_names():
    """Every per-layer metric name with its (unit, better)."""
    out = {f"{layer}.{stat}": STAT_UNITS[stat]
           for layer, stats in PER_LAYER for stat in stats}
    out.update(RUN_LEVEL)
    return out


def pin_blas():
    """Pin BLAS threads to min(2, nproc) before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(2, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# set-up and passes


def make_workload(name, seed, workdir, traced):
    if name == "cli":
        import cliwork
        return cliwork.CliWorkload(seed, workdir, traced)
    import workloads
    return workloads.InProcess(name, seed)


def set_up(args, workdir, tracer=None):
    """Generate inputs and warm up; returns (workload, seconds since the
    process started, which includes ``import glkit``)."""
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
    wl = make_workload(args.workload, args.seed, workdir, bool(args.trace))
    if tracer is not None:
        tracer.phase = None
    wl.warmup()
    return wl, time.perf_counter() - T0


def probe_setup(args):
    """Set-up time of a fresh process (median input for setup_s)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(wl, budget, first, min_passes, tracer=None):
    """Closed loop: passes until ``budget`` seconds are spent.

    Returns [(index, seconds, outputs, (problems, scores, converged))];
    outputs are judged outside the timed region.
    """
    done = []
    start = time.perf_counter()
    k = first
    while True:
        if tracer is not None:
            tracer.phase = k
        t = time.perf_counter()
        outputs = wl.run_pass(k)
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.phase = None
        done.append((k, dt, outputs, wl.judge(k, outputs)))
        k += 1
        typical = statistics.median(d for _, d, _, _ in done)
        if len(done) >= min_passes and time.perf_counter() - start + typical > budget:
            return done


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, passes, setup_samples, oracle_problem):
    first = passes[0][3]
    times = [dt for _, dt, _, _ in passes]
    failed_jobs = sum(len({name for name, _ in judged[0]}) for _, _, _, judged in passes)
    attempted = len(passes) * len(wl.job_names) + 1
    failed = failed_jobs + (oracle_problem is not None)
    scores, converged = first[1], first[2]

    def mean(vals):
        return sum(vals) / len(vals) if vals else float("nan")

    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "pass_s": (statistics.median(times), len(times)),
        "f_score": (mean([f for _, f, _ in scores]), len(scores)),
        "scale_err": (mean([e for _, _, e in scores]), len(scores)),
        "converged_frac": (mean([float(c) for _, c in converged]), len(converged)),
        "peak_rss_mb": (wl.peak_rss_mb([out for _, _, out, _ in passes]), 1),
        "failed_frac": (failed / attempted, attempted),
    }
    return values, attempted, failed


def per_layer(wl, spans, traced, untraced, setup_phase):
    phases = [k for k, _, _, _ in traced]
    n = len(phases)
    agg = tr.aggregate(spans, phases)
    setup_agg = tr.aggregate(spans, [setup_phase]) if setup_phase else {}
    values = {}
    for layer, stats in PER_LAYER:
        source = setup_agg if layer.startswith("simulate.") and setup_phase else agg
        a = source.get(layer)
        per = 1 if source is setup_agg else n
        for stat in stats:
            if a is None:
                v = 0.0
            elif stat == "converged_frac":
                v = a["converged"] / a["with_trace"] if a["with_trace"] else 0.0
            else:
                v = a[stat] / per
            values[f"{layer}.{stat}"] = v
    traced_pass = statistics.median(dt for _, dt, _, _ in traced)
    untraced_pass = statistics.median(dt for _, dt, _, _ in untraced)
    covered = tr.covered_s(spans, phases) / n
    spawn = import_s = 0.0
    if wl.name == "cli":
        calls = [res for _, _, outs, _ in traced for _, res in outs if res["record"]]
        spawn = sum(res["wall_s"] - res["record"]["in_child_s"] for res in calls) / n
        import_s = sum(res["record"]["import_s"] for res in calls) / n
        covered += spawn + import_s
    values.update({
        "cli.spawn_s": spawn,
        "cli.import_s": import_s,
        "trace.pass_s": traced_pass,
        "trace.untraced_pass_s": untraced_pass,
        "trace.overhead_s": traced_pass - untraced_pass,
        "trace.unattributed_s": traced_pass - covered,
    })
    return values


def coverage(expected, spans, phases):
    """(check, expected, observed) for every traced pass: the call counts
    the workload declares, and child calls per parent call."""
    calls, per_call = expected
    out = []
    for k in phases:
        got = tr.counts(spans, k)
        out += [(f"pass {k} {name}.calls", n, got.get(f"{name}.calls", 0))
                for name, n in calls.items()]
        for parent, child, want in per_call:
            for iters, n in tr.children(spans, k, parent, child):
                out.append((f"pass {k} {child} calls per {parent} call",
                            iters if want == "iters" else want, n))
    return out


def non_repeating(spans, phases):
    """Count names whose value differs between traced passes."""
    per_pass = [tr.counts(spans, k) for k in phases]
    names = set().union(*per_pass) if per_pass else set()
    return sorted(name for name in names
                  if len({p.get(name, 0) for p in per_pass}) > 1)


def cli_spans(passes):
    """Child spans of the cli workload, re-tagged with their pass index."""
    spans = []
    for k, _, outputs, _ in passes:
        for _, res in outputs:
            if res["record"]:
                for rec in res["record"]["spans"]:
                    rec[1] = k
                    spans.append(rec)
    return spans


# ---------------------------------------------------------------------------
# run record


def environment(threads, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": commit,
    }


def write_record(args, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)
    return path


def print_table(title, rows):
    print(title)
    print(f"  {'metric':42s} {'value':>12s} {'unit':6s} {'better':7s} {'n':>4s}  detail")
    for name, value, unit, better, n, detail in rows:
        print(f"  {name:42s} {value:12.6g} {unit:6s} {better:7s} {n:4d}  {detail}")


# ---------------------------------------------------------------------------
# entry points


def measure(args, wl, tracer):
    """Timed passes. A traced run spends half of --seconds on untraced
    passes and half on traced ones; returns (untraced, traced)."""
    if not args.trace:
        return run_passes(wl, args.seconds, 0, MIN_PASSES), []
    wl.traced = False          # cli children install their own wrappers
    untraced = run_passes(wl, args.seconds / 2, 0, 1)
    wl.traced = True
    if tracer is not None:
        tracer.install()
    traced = run_passes(wl, args.seconds / 2, len(untraced), MIN_PASSES, tracer)
    if tracer is not None:
        tracer.uninstall()
    return untraced, traced


def report_end_to_end(values, pass_times):
    q1, q3 = quartiles(pass_times)
    rows = []
    for name, (unit, better) in {**END_TO_END, **REPORT_ONLY}.items():
        v, n = values[name]
        rows.append((name, v, unit, better, n,
                     f"q1 {q1:.4f} q3 {q3:.4f}" if name == "pass_s" else ""))
    print_table("end-to-end metrics", rows)
    return {name: {"value": values[name][0], "unit": unit}
            for name, (unit, _) in END_TO_END.items()}


def report_per_layer(args, wl, tracer, untraced, traced, record):
    if tracer is not None:
        spans, absent, setup_phase = tracer.spans, tracer.absent, "setup"
    else:
        spans, setup_phase = cli_spans(traced), None
        absent = sorted({a for _, _, outs, _ in traced for _, res in outs
                         if res["record"] for a in res["record"]["absent"]})
    metrics = per_layer(wl, spans, traced, untraced, setup_phase)
    phases = [k for k, _, _, _ in traced]
    flagged = non_repeating(spans, phases)
    missed = [c for c in coverage(wl.expected, spans, phases) if c[1] != c[2]]
    record.update(per_layer=metrics, absent=absent, non_repeating=flagged,
                  coverage_mismatches=missed, counts=tr.counts(spans, phases[0]))
    with open(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
              "w") as fh:
        json.dump(spans, fh)

    units = per_layer_names()
    rows = [(name, v, *units[name], len(traced),
             "absent" if name.rsplit(".", 1)[0] in absent else "")
            for name, v in metrics.items()]
    print_table(f"per-layer metrics (per traced pass; tracing overhead "
                f"{metrics['trace.overhead_s']:+.4f} s per pass)", rows)
    if flagged:
        print(f"  counts that did not repeat across traced passes: {flagged}")
    print(f"  span coverage: {len(missed)} expected call counts missed")
    for check, want, got in missed:
        print(f"    {check}: expected {want}, traced {got}")
    return {name: {"value": v, "unit": units[name][0]} for name, v in metrics.items()}


def run(args, threads, nproc):
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tracer = tr.Tracer() if args.trace and args.workload != "cli" else None
    try:
        wl, setup_main = set_up(args, workdir, tracer)
        if tracer is not None:
            tracer.uninstall()
        setup_samples = [setup_main]
        if not args.trace:
            setup_samples += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        untraced, traced = measure(args, wl, tracer)
        passes = untraced + traced
        oracle_problem = wl.oracle(passes[0][2])
        values, attempted, failed = end_to_end(wl, passes, setup_samples, oracle_problem)

        problems = [(k, job, text) for k, _, _, judged in passes for job, text in judged[0]]
        if oracle_problem:
            problems.append(("oracle", "oracle", oracle_problem))
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(threads, nproc),
            "solver_configs": wl.configs,
            "setup_samples_s": setup_samples,
            "pass_s": [dt for _, dt, _, _ in passes],
            "job_s": {name: statistics.median(ts) for name, ts in wl.job_seconds.items()},
            "scores": passes[0][3][1], "converged": passes[0][3][2],
            "problems": problems, "attempted": attempted, "failed": failed,
        }
        print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
              f"blas_threads {threads}  nproc {nproc}  commit "
              f"{record['environment']['git_commit'][:12]}")
        for k, job, text in problems:
            print(f"  FAILED pass {k} {job}: {text}")
        if args.trace:
            metrics = report_per_layer(args, wl, tracer, untraced, traced, record)
        else:
            metrics = report_end_to_end(values, record["pass_s"])
        record["metrics"] = metrics
        print(f"  run record: {os.path.relpath(write_record(args, record), ROOT)}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selftest(args):
    """Two traced runs at one seed: every *.calls and *.iters count must
    repeat, within each run and between the two, and match the calls the
    workload declares."""
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace1.json")
        with open(path) as fh:
            runs.append(json.load(fh))
    first, second = (run["counts"] for run in runs)
    names = sorted(set(first) | set(second))
    differ = [n for n in names if first.get(n) != second.get(n)]
    for n in names:
        print(f"  {n:50s} {first.get(n, 0):>10} {second.get(n, 0):>10}  "
              + ("DIFFERS" if n in differ else "same"))
    within = sorted({n for run in runs for n in run["non_repeating"]})
    missed = [c for run in runs for c in run["coverage_mismatches"]]
    print(f"selftest {args.workload} seed {args.seed}: {len(names) - len(differ)}/"
          f"{len(names)} counts repeat between runs; within runs not repeating: "
          f"{within or 'none'}; span coverage misses: {len(missed)}")
    for check, want, got in missed:
        print(f"  {check}: expected {want}, traced {got}")
    return 1 if differ or within or missed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="two traced runs; *.calls and *.iters must repeat")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads, nproc = pin_blas()
    if not os.path.isfile(os.path.join(SRC, "glkit", "__init__.py")):
        print(f"bench: no glkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import glkit

    if not os.path.realpath(glkit.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"bench: imported glkit from {glkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(args)
    if args.setup_probe:
        workdir = os.path.join(OUT_DIR, f"probe-{args.workload}-{os.getpid()}")
        try:
            _, seconds = set_up(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run(args, threads, nproc)


if __name__ == "__main__":
    sys.exit(main())
