"""The cli workload: ``glk`` command lines run as subprocesses, one at a
time, through ``glk_shim.py``.

A pass simulates a GMRF data set (N=50, P=2000, a 2 MB CSV plus a graph
JSON) and a diffusion data set (N=30, P=5000, a 3.5 MB CSV), learns five
graphs from them and evaluates two. Interpreter start, ``import glkit`` and CSV/JSON I/O are
paid on every call, as a user of the command line pays them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from glkit import graphcore, metrics, serialize, simulate

import checks
import tracer as tr

SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "glk_shim.py")
CONFIG = {"max_iters": 5000, "tol": 1e-7}   # --config of glasso and spectral
GMRF = {"n": 50, "p": 2000, "p_edge": 0.06, "gamma": 0.5}
# the spectral learner stops at its cap on every seed at this size; at
# N=10 it converges on most seeds only, and its error swings between ~0
# and ~0.9 from seed to seed
DIFFUSION = {"n": 30, "p": 5000, "p_edge": 0.3}
EDGE_BUDGET = 75                            # about the expected edge count

# learned graph -> (data set, output kind)
LEARNED = {
    "learn_corr": ("gmrf", "adjacency"),
    "learn_pcorr": ("gmrf", "adjacency"),
    "learn_glasso": ("gmrf", "precision"),
    "learn_edge_select": ("gmrf", "adjacency"),
    "learn_spectral": ("diff", "adjacency"),
}
EVALUATED = {"eval_glasso": "learn_glasso", "eval_spectral": "learn_spectral"}


def _derived_seed(seed, k):
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class CliWorkload:
    """Same interface as workloads.InProcess, over subprocess calls."""

    name = "cli"

    def __init__(self, seed, workdir, traced):
        self.workdir = workdir
        self.traced = traced
        self.sim_seeds = {"gmrf": _derived_seed(seed, 0), "diff": _derived_seed(seed, 1)}
        os.makedirs(workdir, exist_ok=True)
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(CONFIG, fh)
        self.configs = {name: CONFIG for name in ("learn_glasso", "learn_spectral")}
        self.job_names = [name for name, _ in self.commands("")]
        self.job_seconds = {name: [] for name in self.job_names}
        self._spawned = 0

    # traced calls of one pass (see workloads.EXPECTED)
    expected = (
        {"cli.main": 9, "serialize.write_matrix_csv": 2, "serialize.read_matrix_csv": 5,
         "serialize.write_graph_json": 7, "serialize.read_graph_json": 4,
         "statnet.graphical_lasso": 1, "spectralid.infer_shift_from_signals": 1,
         "metrics.evaluate": 2},
        [])

    def commands(self, d):
        def out(name):
            return os.path.join(d, name)

        g, s = GMRF, DIFFUSION
        return [
            ("simulate_gmrf", [
                "simulate", "gmrf", "--n", str(g["n"]), "--p", str(g["p"]),
                "--p-edge", str(g["p_edge"]), "--gamma", str(g["gamma"]),
                "--seed", str(self.sim_seeds["gmrf"]),
                "-o", out("gmrf.csv"), "--graph-out", out("gmrf_graph.json")]),
            ("simulate_diffusion", [
                "simulate", "diffusion", "--n", str(s["n"]), "--p", str(s["p"]),
                "--p-edge", str(s["p_edge"]), "--seed", str(self.sim_seeds["diff"]),
                "-o", out("diff.csv"), "--graph-out", out("diff_graph.json")]),
            ("learn_corr", ["learn", "corr", "-i", out("gmrf.csv"),
                            "-o", out("learn_corr.json")]),
            ("learn_pcorr", ["learn", "pcorr", "-i", out("gmrf.csv"),
                             "-o", out("learn_pcorr.json")]),
            ("learn_glasso", ["learn", "glasso", "-i", out("gmrf.csv"),
                              "-o", out("learn_glasso.json"),
                              "--config", self.config_path]),
            ("learn_edge_select", ["learn", "edge-select", "-i", out("gmrf.csv"),
                                   "-o", out("learn_edge_select.json"),
                                   "--k", str(EDGE_BUDGET)]),
            ("learn_spectral", ["learn", "spectral", "-i", out("diff.csv"),
                                "-o", out("learn_spectral.json"),
                                "--config", self.config_path]),
            ("eval_glasso", ["eval", "-i", out("learn_glasso.json"),
                             "--truth", out("gmrf_graph.json")]),
            ("eval_spectral", ["eval", "-i", out("learn_spectral.json"),
                               "--truth", out("diff_graph.json")]),
        ]

    def spawn(self, argv):
        """Run one glk command line; returns its result record."""
        self._spawned += 1
        record_path = os.path.join(self.workdir, f"record-{self._spawned}.json")
        env = dict(os.environ, GLK_BENCH_RECORD=record_path,
                   GLK_BENCH_TRACE="1" if self.traced else "0")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, SHIM, *argv], env=env,
                              capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - start
        record = None
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
            os.remove(record_path)
        return {"rc": proc.returncode, "wall_s": wall, "stdout": proc.stdout,
                "stderr": proc.stderr, "record": record}

    def warmup(self):
        d = os.path.join(self.workdir, "warmup")
        os.makedirs(d, exist_ok=True)
        self.spawn(["simulate", "er", "--n", "5", "-o", os.path.join(d, "g.json")])

    def pass_dir(self, k):
        return os.path.join(self.workdir, f"pass-{k}")

    def run_pass(self, k):
        d = self.pass_dir(k)
        os.makedirs(d, exist_ok=True)
        outputs = []
        for name, argv in self.commands(d):
            res = self.spawn(argv)
            self.job_seconds[name].append(res["wall_s"])
            outputs.append((True, res))
        return outputs

    # -- judging a pass --------------------------------------------------

    def judge(self, k, outputs):
        """(problems, scores, converged flags) of one pass's outputs."""
        d = self.pass_dir(k)
        problems, scores, converged = [], [], []
        results = dict(zip(self.job_names, (res for _, res in outputs)))
        for name, res in results.items():
            if res["rc"] != 0 or res["record"] is None:
                problems.append((name, f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"))
        if problems:
            return problems, scores, converged

        def check(name, problem):
            if problem:
                problems.append((name, problem))

        truths = {}
        for data, job, spec in (("gmrf", "simulate_gmrf", GMRF),
                                ("diff", "simulate_diffusion", DIFFUSION)):
            X = serialize.read_matrix_csv(os.path.join(d, f"{data}.csv"))
            ok = X.shape == (spec["n"], spec["p"]) and np.all(np.isfinite(X))
            check(job, None if ok else f"bad signal matrix, shape {X.shape}")
            truth = serialize.read_graph_json(os.path.join(d, f"{data}_graph.json"))
            check(job, checks.structural("adjacency", truth.data))
            truths[data] = truth.weights()

        estimates = {}
        for name, (data, kind) in LEARNED.items():
            shift = serialize.read_shift_any(os.path.join(d, f"{name}.json"))
            check(name, checks.structural(kind, shift.data))
            estimates[name] = shift.weights()
            scores.append((name, *checks.score(estimates[name], truths[data])))
            for rec in results[name]["record"]["spans"]:
                if rec[tr.NAME] in tr.CLI_LEARNERS:
                    converged.append((name, bool(rec[tr.CONVERGED])))

        for name, learned in EVALUATED.items():
            try:
                reported = json.loads(results[name]["stdout"])["f_score"]
            except (ValueError, KeyError) as exc:
                check(name, f"unreadable eval output ({exc})")
                continue
            data = LEARNED[learned][0]
            expected = metrics.evaluate(estimates[learned], truths[data]).f_score
            check(name, None if abs(reported - expected) <= 1e-12 else
                  f"eval reports F={reported} but the output scores {expected}")
        return problems, scores, converged

    def oracle(self, outputs):
        """The CSV that ``glk simulate gmrf`` wrote reads back bit-exact:
        an independent parser returns exactly the library generator's draw."""
        rng = simulate.make_rng(self.sim_seeds["gmrf"])
        G = simulate.gen_er_graph(GMRF["n"], GMRF["p_edge"], rng=rng,
                                  require_connected=True)
        L = graphcore.laplacian_from_weights(G.weights())
        X = simulate.sample_gmrf(L.data + GMRF["gamma"] * np.eye(GMRF["n"]),
                                 GMRF["p"], rng).data
        written = np.loadtxt(os.path.join(self.pass_dir(0), "gmrf.csv"), delimiter=",")
        if written.shape == X.shape and np.array_equal(written, X):
            return None
        return "glk simulate gmrf CSV does not read back bit-exact"

    def peak_rss_mb(self, all_outputs):
        peaks = [res["record"]["peak_rss_kb"] for outputs in all_outputs
                 for ok, res in outputs if res["record"]]
        return max(peaks) / 1024.0 if peaks else float("nan")
