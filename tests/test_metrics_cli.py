import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import glkit.metrics as mt
import glkit.serialize as ser
import glkit.simulate as sim
import glkit.spectralid as sid
import glkit.statnet as stn
from glkit.errors import DataError
from glkit.cli import main as cli_main
from glkit.graphcore import ShiftKind, ShiftOperator, build_shift


# child interpreters import glkit from this checkout's src/, as pytest does
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def adjacency(n, edges):
    return build_shift([(i, j, w) for i, j, w in edges], n,
                       ShiftKind.ADJACENCY)


class TestEdgePrf:
    def test_perfect_match(self):
        A = adjacency(4, [(0, 1, 1.0), (2, 3, 0.5)]).data
        assert mt.edge_prf(A, A) == (1.0, 1.0, 1.0)

    def test_empty_estimate(self):
        truth = adjacency(4, [(0, 1, 1.0)]).data
        p, r, f = mt.edge_prf(np.zeros((4, 4)), truth)
        assert (r, f) == (0.0, 0.0)

    def test_complete_estimate_counts(self):
        truth = adjacency(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]).data
        complete = np.ones((5, 5)) - np.eye(5)
        p, r, f = mt.edge_prf(complete, truth)
        assert r == 1.0
        assert p == pytest.approx(3 / 10)

    def test_empty_both_is_perfect(self):
        assert mt.edge_prf(np.zeros((3, 3)), np.zeros((3, 3))) == (1.0, 1.0, 1.0)


class TestTopkCurve:
    def test_perfect_weights_saturate_at_edge_count(self):
        truth = adjacency(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]).data
        curve = dict(mt.topk_recovery_curve(truth, truth, [1, 2, 3, 5, 10]))
        assert curve[3] == 1.0
        assert curve[10] == 1.0
        assert curve[1] == pytest.approx(1 / 3)

    def test_adversarial_ordering(self):
        n = 5
        truth = adjacency(n, [(3, 4, 1.0)]).data
        est = np.ones((n, n)) - np.eye(n)
        est[3, 4] = est[4, 3] = 1e-6  # true edge ranked dead last
        curve = dict(mt.topk_recovery_curve(est, truth, [9, 10]))
        assert curve[9] == 0.0
        assert curve[10] == 1.0

    def test_random_rank_matches_hypergeometric_mean(self):
        rng = np.random.default_rng(0)
        n, k = 8, 10
        m = n * (n - 1) // 2
        truth = np.zeros((n, n))
        iu, ju = np.triu_indices(n, 1)
        chosen = rng.choice(m, size=7, replace=False)
        truth[iu[chosen], ju[chosen]] = 1.0
        truth = truth + truth.T
        fracs = []
        for _ in range(1000):
            est = np.zeros((n, n))
            w = rng.random(m)
            est[iu, ju] = w
            est = est + est.T
            fracs.append(dict(mt.topk_recovery_curve(est, truth, [k]))[k])
        # mean fraction of true edges in a random size-k draw is k/m
        assert np.mean(fracs) == pytest.approx(k / m, abs=0.02)

    def test_curve_non_decreasing(self):
        rng = np.random.default_rng(1)
        est = rng.random((6, 6))
        est = est + est.T
        np.fill_diagonal(est, 0.0)
        truth = adjacency(6, [(0, 1, 1.0), (2, 3, 1.0)]).data
        curve = mt.topk_recovery_curve(est, truth, list(range(1, 16)))
        fr = [f for _, f in curve]
        assert all(b >= a for a, b in zip(fr, fr[1:]))


def test_evaluate_single_vertex_has_empty_curve():
    report = mt.evaluate(np.zeros((1, 1)), np.zeros((1, 1)))
    assert report.topk_curve == ()
    assert (report.precision, report.recall, report.f_score) == (1.0, 1.0, 1.0)


class TestScaleAlignedError:
    def test_pure_rescaling_is_zero(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((5, 5))
        assert mt.scale_aligned_error(2.0 * S, S) <= 1e-12

    def test_orthogonal_estimate_scores_one(self):
        A = np.zeros((2, 2))
        A[0, 1] = A[1, 0] = 1.0
        B = np.diag([1.0, -1.0])
        assert mt.scale_aligned_error(B, A) == pytest.approx(1.0)

    def test_zero_estimate_scores_one(self):
        assert mt.scale_aligned_error(np.zeros((3, 3)), np.eye(3)) == 1.0

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            ours = mt.scale_aligned_error(A, B)
            grid = np.linspace(-5, 5, 2_000_001)
            # coarse-to-fine scalar search
            cs = np.linspace(-5, 5, 20001)
            errs = [np.linalg.norm(c * A - B) for c in cs]
            c0 = cs[int(np.argmin(errs))]
            cs2 = np.linspace(c0 - 1e-3, c0 + 1e-3, 20001)
            best = min(np.linalg.norm(c * A - B) for c in cs2)
            assert ours == pytest.approx(best / np.linalg.norm(B), abs=1e-9)


class TestSerialize:
    def test_matrix_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((6, 9)) * np.exp(rng.uniform(-20, 20, (6, 9)))
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, M)
        back = ser.read_matrix_csv(path)
        np.testing.assert_array_equal(back, M)

    @pytest.mark.parametrize("kind", [ShiftKind.ADJACENCY, ShiftKind.LAPLACIAN])
    def test_graph_round_trip(self, tmp_path, kind):
        rng = np.random.default_rng(5)
        iu, ju = np.triu_indices(6, 1)
        edges = [(int(i), int(j), float(w)) for i, j, w in
                 zip(iu, ju, rng.uniform(0.5, 1.5, iu.size))
                 if rng.random() < 0.6]
        G = build_shift(edges, 6, kind)
        path = tmp_path / "g.json"
        ser.write_graph_json(path, G)
        back = ser.read_graph_json(path)
        assert back.kind == kind
        np.testing.assert_array_equal(back.data, G.data)

    def test_matrix_csv_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, np.array([[np.nan, np.inf, -np.inf],
                                             [-0.0, 1e-300, 1.0 / 3.0]]))
        assert path.read_bytes() == \
            b"nan,inf,-inf\n-0,1e-300,0.33333333333333331\n"
        ser.write_matrix_csv(path, [2.5, -1, 0])  # 1-D: one row
        assert path.read_bytes() == b"2.5,-1,0\n"

    @pytest.mark.parametrize("case", ["adjacency", "laplacian", "precision",
                                      "directed", "empty"])
    def test_graph_json_matches_json_dumps(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(ser, "RECORDS_PER_WRITE", 3)
        rng = np.random.default_rng(22)
        n = 6
        A = np.triu(rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        A += A.T
        shift = {
            "adjacency": ShiftOperator(A, ShiftKind.ADJACENCY),
            "laplacian": ShiftOperator(np.diag(A.sum(axis=1)) - A, ShiftKind.LAPLACIAN),
            "precision": ShiftOperator(np.diag([2.0, 0, 1.5, 0, 1, 3]) - 0.1 * A,
                                       ShiftKind.PRECISION),
            "directed": ShiftOperator(rng.standard_normal((n, n))
                                      * (rng.random((n, n)) < 0.4), directed=True),
            "empty": ShiftOperator(np.zeros((n, n)), ShiftKind.ADJACENCY),
        }[case]
        M = -shift.data if case == "laplacian" else shift.data
        diag = [(i, i) for i in range(n)] if shift.kind in (
            ShiftKind.PRECISION, ShiftKind.GENERIC) else []
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and (shift.directed or i < j)]
        edges = [{"i": i, "j": j, "w": float(M[i, j])} for i, j in diag + pairs
                 if M[i, j] != 0]
        assert (case == "empty") == (not edges)
        path = tmp_path / "g.json"
        ser.write_graph_json(path, shift)
        assert path.read_text() == json.dumps(
            {"n": n, "kind": shift.kind.value, "directed": shift.directed,
             "edges": edges}, indent=1) + "\n"

    def test_precision_round_trip_keeps_diagonal(self, tmp_path):
        theta = np.array([[2.0, -0.4], [-0.4, 1.5]])
        G = ShiftOperator(theta, ShiftKind.PRECISION)
        path = tmp_path / "p.json"
        ser.write_graph_json(path, G)
        back = ser.read_graph_json(path)
        np.testing.assert_array_equal(back.data, theta)

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=7),
                      elements=hst.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[5e-324, -2.2250738585072009e-308, 0.0, -0.0],
                       [1e308, -1e308, 1.7976931348623157e308, 1.0 / 3.0]]))
    def test_matrix_round_trip_bitwise(self, M):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "m.csv"
            ser.write_matrix_csv(path, M)
            back = ser.read_matrix_csv(path)
        assert back.shape == M.shape
        assert back.tobytes() == M.tobytes()  # -0.0 keeps its sign bit

    def test_matrix_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6.5\n")
        np.testing.assert_array_equal(ser.read_matrix_csv(path, header=True),
                                      [[1, 2, 3], [4, 5, 6.5]])
        with pytest.raises(DataError, match="malformed CSV"):
            ser.read_matrix_csv(path)
        path.write_text("a,b,c\n")
        with pytest.raises(DataError, match="empty matrix file"):
            ser.read_matrix_csv(path, header=True)

    def test_matrix_single_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,2\n")
        assert ser.read_matrix_csv(path).shape == (1, 2)
        path.write_text("1.5\n\n2\n")  # blank lines are skipped
        np.testing.assert_array_equal(ser.read_matrix_csv(path), [[1.5], [2.0]])

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix file"),
        (" \n\t\n  \n", "empty matrix file"),
        ("1,2,3\n4,5\n", "malformed CSV"),                  # ragged rows
        ("1,2,\n3,4,\n", "malformed CSV"),                  # trailing commas
        ("1,2\n3,x\n", "malformed CSV"),                    # non-numeric token
        ("# comment\n1,2\n", "malformed CSV"),              # '#' line
        ("1,2\n# comment\n", "malformed CSV"),
        ("1_000,2\n", "malformed CSV"),                      # Python-only literal
        ("1,2\n3,nan\n", "non-finite value nan at line 2, column 2"),
        ("inf,2\n", "non-finite value inf at line 1, column 1"),
        ("1,-inf,3\n", "non-finite value -inf at line 1, column 2"),
    ])
    def test_matrix_rejected_inputs(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message) as info:
            ser.read_matrix_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text, line, message", [
        ("1,2\n3,x\n", 2, "column 2: 'x' is not a number"),
        ("1,2\n\n1_000,4\n", 3, "column 1: '1_000' is not a number"),
        ("1,2,\n", 1, "column 3: '' is not a number"),
        ("1,2\n3\n", 2, "column 2: width 1, but line {first} has width 2"),
        ("1,2\n \n3,4,5\n", 3, "column 3: width 3, but line {first} has width 2"),
        ("1,2\n\n3,nan\n", 3, "column 2"),
        ("1,2\n3,\udcff\n", 2, "column 2: '\\udcff' is not a number"),  # byte 0xff
    ])
    @pytest.mark.parametrize("header", [False, True])
    def test_matrix_errors_name_the_file_line(self, tmp_path, text, line, message, header):
        # lines count from 1 in the file itself, header and blank lines included
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n" * header + text, errors="surrogateescape")
        with pytest.raises(DataError) as info:
            ser.read_matrix_csv(path, header=header)
        message = message.format(first=1 + header)
        assert f" at line {line + header}, {message}" in str(info.value)

    @pytest.mark.parametrize("case", ["saturated", "single_vertex", "plain"])
    def test_table_json_matches_json_dumps(self, tmp_path, case):
        X = np.random.default_rng(21).standard_normal(
            (1 if case == "single_vertex" else 7, 30))
        if case == "saturated":
            X[3], X[5] = X[1], -X[1]  # statistics +inf and -inf
        table, _ = stn.correlation_network(X, q=0.3)
        if case == "saturated":
            assert np.isposinf(table.statistic).any() and np.isneginf(table.statistic).any()
            assert table.flags["saturated_pairs"]
        cols = ("i", "j", "statistic", "p_value", "reject")
        head = {"method": table.method, "q": table.q, "flags": dict(table.flags)}
        records = [dict(zip(cols, row))
                   for row in zip(*(getattr(table, c).tolist() for c in cols))]
        path = tmp_path / "t.json"
        ser.write_records_json(path, head, "pairs",
                               {c: getattr(table, c) for c in cols})
        expected = json.dumps({**head, "pairs": records}, indent=1) + "\n"
        assert path.read_text() == expected

    def test_records_json_blocks_and_special_floats(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ser, "RECORDS_PER_WRITE", 3)
        cols = {"k": np.arange(8, dtype=np.int32),
                "x": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, 2.0]),
                "ok": np.arange(8) % 3 == 0}
        path = tmp_path / "r.json"
        ser.write_records_json(path, {"flags": {"note": "a%sb"}}, "rows", cols)
        records = [dict(zip(cols, row))
                   for row in zip(*(c.tolist() for c in cols.values()))]
        assert path.read_text() == json.dumps(
            {"flags": {"note": "a%sb"}, "rows": records}, indent=1) + "\n"


def learn_record(capsys):
    """The one JSON record that ``glk learn`` printed on stdout."""
    [line] = capsys.readouterr().out.splitlines()
    return json.loads(line)


RECORD_KEYS = {"method", "status", "iters_used", "kkt_residual", "notes"}
# each method's own record fields; the learners in NO_TRACE return no
# SolveTrace, so their status, iters_used and kkt_residual are null
METHOD_FIELDS = {"lgmrf": {"gamma"}, "sem": {"omega"}, "psd-filter": {"psd", "provenance"},
                 "sym-filter": {"identifiable", "residual"}, "spectral-partial": {"kept"}}
NO_TRACE = {"corr", "pcorr", "edge-select", "sym-filter"}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Small seeded inputs for every command path: GMRF signals (N=6) and
    their graph as JSON and as a CSV matrix, diffusion signals (N=10) and
    their exact covariance, SEM signals with their inputs, and two
    processes' filter covariances, consistent (x, w) and not (xr, wr)."""
    d = tmp_path_factory.mktemp("cli_inputs")
    rng = np.random.default_rng(9)
    G = sim.gen_er_graph(6, 0.4, rng=3, require_connected=True)
    L = G.weights()
    theta = np.diag(L.sum(axis=1)) - L + 0.5 * np.eye(6)
    ser.write_matrix_csv(d / "gm.csv", sim.sample_gmrf(theta, 200, rng).data)
    ser.write_graph_json(d / "gm.json", G)
    ser.write_matrix_csv(d / "gm_graph.csv", G.data)
    D = sim.gen_er_graph(10, 0.3, rng=7, require_connected=True)
    ser.write_matrix_csv(d / "diff.csv", sim.gen_diffusion(D, [1.0, 0.5, 0.2], 500, rng=rng).data)
    ser.write_matrix_csv(d / "cov.csv", sim.diffusion_covariance(D, [1.0, 0.5, 0.2]))
    W = sim.gen_er_digraph(6, 0.3, radius=0.5, rng=rng)
    U = rng.standard_normal((6, 200))
    ser.write_matrix_csv(d / "x.csv", sim.gen_sem(W, np.eye(6), U, 0.1, rng).data)
    ser.write_matrix_csv(d / "u.csv", U)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    H = (Q * rng.uniform(0.5, 2.0, 4)) @ Q.T
    for k, Sw in enumerate([np.eye(4), np.diag(rng.uniform(0.5, 2.0, 4))]):
        ser.write_matrix_csv(d / f"w{k}.csv", Sw)
        ser.write_matrix_csv(d / f"x{k}.csv", H @ Sw @ H.T)
        A, B = rng.standard_normal((2, 4, 4))  # no single filter fits these
        ser.write_matrix_csv(d / f"wr{k}.csv", B @ B.T + np.eye(4))
        ser.write_matrix_csv(d / f"xr{k}.csv", A @ A.T + np.eye(4))
    return d


def _covs(x, w):
    return ["--xcov", f"{{d}}/{x}0.csv", "--xcov", f"{{d}}/{x}1.csv",
            "--wcov", f"{{d}}/{w}0.csv", "--wcov", f"{{d}}/{w}1.csv"]


# one command line per path: the 16 learn methods (plain edge-select,
# the deconvolution success path), the spectrum ops that print or write
# a matrix, and simulate's ER and --graph paths. An output named .csv
# takes the CSV branch of serialize.write_shift_any, and a --graph CSV
# that of serialize.read_shift_any.
COMMAND_PATHS = [pytest.param(argv, id=name) for name, argv in [
    *((f"learn-{m}", ["learn", m, "-i", "{d}/gm.csv", "-o", "OUT.json"])
      for m in ("pcorr", "glasso", "lgmrf", "nlasso", "dong", "kalofolias")),
    ("learn-corr", ["learn", "corr", "-i", "{d}/gm.csv", "-o", "OUT.csv"]),
    ("learn-edge-select", ["learn", "edge-select", "-i", "{d}/gm.csv", "--k", "5",
                           "-o", "OUT.json"]),
    ("learn-spectral", ["learn", "spectral", "-i", "{d}/diff.csv", "-o", "OUT.json"]),
    ("learn-spectral-partial", ["learn", "spectral-partial", "-i", "{d}/diff.csv",
                                "--k", "4", "-o", "OUT.json"]),
    ("learn-deconv", ["learn", "deconv", "-i", "{d}/cov.csv", "-o", "OUT.json"]),
    ("learn-psd-filter", ["learn", "psd-filter", *_covs("x", "w"), "-o", "OUT.csv"]),
    ("learn-sym-filter", ["learn", "sym-filter", *_covs("x", "w"), "-o", "OUT.csv"]),
    ("learn-sem", ["learn", "sem", "-i", "{d}/x.csv", "--exo", "{d}/u.csv", "-o", "OUT.json"]),
    ("learn-dsem", ["learn", "dsem", "-i", "{d}/x.csv", "--exo", "{d}/u.csv",
                    "-o", "OUT.json"]),
    ("learn-svarm", ["learn", "svarm", "-i", "{d}/x.csv", "-o", "OUT.json"]),
    ("spectrum-tv", ["spectrum", "--op", "tv", "--graph", "{d}/gm.json", "-i", "{d}/gm.csv"]),
    *((f"spectrum-{op}", ["spectrum", "--op", op, "--graph", "{d}/gm_graph.csv",
                          "-i", "{d}/gm.csv", "-o", "OUT.csv"])
      for op in ("psd", "gft", "igft")),
    ("simulate-er", ["simulate", "er", "--n", "8", "--seed", "2", "-o", "OUT.json"]),
    ("simulate-graph", ["simulate", "smooth", "--graph", "{d}/gm_graph.csv", "--p", "40",
                        "--seed", "2", "-o", "OUT.csv"]),
]]


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    @pytest.mark.parametrize("argv", COMMAND_PATHS)
    def test_command_paths(self, cli_inputs, tmp_path, capsys, argv):
        argv = [a.format(d=cli_inputs).replace("OUT", str(tmp_path / "out")) for a in argv]
        assert self.run(*argv) == 0
        if argv[:3] == ["spectrum", "--op", "tv"]:  # prints, writes nothing
            assert len(json.loads(capsys.readouterr().out)["total_variation"]) == 200
            return
        out = Path(argv[argv.index("-o") + 1])
        assert (ser.read_matrix_csv(out) if out.suffix == ".csv" else
                ser.read_shift_any(out).data).size > 0
        if argv[0] != "learn":
            return
        method = argv[1]
        record = learn_record(capsys)
        assert record["method"] == method
        assert set(record) == RECORD_KEYS | METHOD_FIELDS.get(method, set())
        if method in NO_TRACE:
            assert (record["status"], record["iters_used"], record["kkt_residual"],
                    record["notes"]) == (None, None, None, {})
        else:
            assert record["status"] in ("converged", "exact", "certified")
            assert all(type(v) in (int, float, bool) for v in record["notes"].values())

    @pytest.mark.parametrize("method,argv", [
        ("glasso", ["-i", "{d}/gm.csv"]), ("kalofolias", ["-i", "{d}/gm.csv"]),
        ("psd-filter", _covs("xr", "wr")), ("nlasso", ["-i", "{d}/gm.csv"]),
        ("svarm", ["-i", "{d}/x.csv"]), ("dsem", ["-i", "{d}/x.csv", "--exo", "{d}/u.csv"])])
    def test_capped_solve_exits_5(self, cli_inputs, tmp_path, capsys, method, argv):
        # the outputs and the record are written first; the solve warns once
        # (nlasso, svarm and dsem once exited 0 with a null status, and
        # dsem warned once per epoch)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text('{"max_iters": 1}')
        argv = [a.format(d=cli_inputs) for a in argv]
        with pytest.warns(UserWarning, match="stopped at its 1-") as warned:
            code = self.run("learn", method, *argv, "--config", str(cfg), "-o", str(out))
        assert code == 5 and len(warned) == 1
        assert ser.read_matrix_csv(out).shape in ((6, 6), (4, 4))
        record = learn_record(capsys)
        # the lasso's iters_used sums one sweep for each of the six nodes,
        # and dsem's over its 200 epochs
        sweeps = {"nlasso": 6, "svarm": 6, "dsem": 1200}.get(method, 1)
        assert record["status"] == "max_iters" and record["iters_used"] == sweeps

    def test_pipeline_smoke(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        g = tmp_path / "g.json"
        shat = tmp_path / "shat.json"
        assert self.run("simulate", "diffusion", "--n", "10", "--p", "500",
                        "--seed", "7", "-o", str(sig), "--graph-out", str(g)) == 0
        capsys.readouterr()
        assert self.run("learn", "spectral", "-i", str(sig), "-o", str(shat)) == 0
        assert learn_record(capsys)["status"] == "certified"
        assert self.run("eval", "-i", str(shat), "--truth", str(g)) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"precision", "recall", "f_score",
                               "scale_aligned_error", "topk_curve"}

    def test_glasso_auto_lambda(self, tmp_path):
        sig = tmp_path / "sig.csv"
        out = tmp_path / "theta.json"
        assert self.run("simulate", "gmrf", "--n", "6", "--p", "200",
                        "--seed", "3", "-o", str(sig)) == 0
        assert self.run("learn", "glasso", "-i", str(sig),
                        "--lambda", "auto", "-o", str(out)) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["kind"] == "precision"

    @pytest.mark.parametrize("method", ["corr", "pcorr"])
    def test_table_out(self, tmp_path, method):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 40))
        if method == "corr":
            X[4] = X[1]  # a saturated pair
        sig, out, tab = tmp_path / "x.csv", tmp_path / "g.json", tmp_path / "t.json"
        ser.write_matrix_csv(sig, X)
        assert self.run("learn", method, "-i", str(sig), "-o", str(out),
                        "--q", "0.2", "--table-out", str(tab)) == 0
        table = json.loads(tab.read_text())
        assert set(table) == {"method", "q", "flags", "pairs"}
        assert table["q"] == 0.2
        assert [(t["i"], t["j"]) for t in table["pairs"]] == \
            [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for t in table["pairs"]:
            assert list(t) == ["i", "j", "statistic", "p_value", "reject"]
            assert 0.0 <= t["p_value"] <= 1.0 and isinstance(t["reject"], bool)
        shift = ser.read_graph_json(out)
        assert {(t["i"], t["j"]) for t in table["pairs"] if t["reject"]} == \
            {(i, j) for i, j, _ in shift.edges()}
        sat = [[1, 4]] if method == "corr" else []
        assert table["flags"] == {"saturated_pairs": sat}
        if method == "corr":
            assert '"statistic": Infinity' in tab.read_text()
            hit = next(t for t in table["pairs"] if (t["i"], t["j"]) == (1, 4))
            assert hit["p_value"] == 0.0 and hit["reject"] is True

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["edge-select", "--k", "3"], ["corr"], ["pcorr"], ["kalofolias"],
        ["glasso"], ["spectral"]])
    def test_non_finite_signals_are_data_error(self, tmp_path, capsys, argv, value):
        # these once exited 0 (edge-select), 2 (corr, kalofolias) or 3 with
        # a solver message (pcorr, glasso, spectral)
        X = np.random.default_rng(2).standard_normal((6, 50))
        X[2, 7] = float(value)
        sig = tmp_path / "sig.csv"
        ser.write_matrix_csv(sig, X)
        out = tmp_path / "x.json"
        assert self.run("learn", argv[0], "-i", str(sig), *argv[1:],
                        "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(sig) in err
        assert f"non-finite value {value} at line 3, column 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["dong", "-i", "SIG", "--alpha", "nan"], ["dong", "-i", "SIG", "--beta", "inf"],
        ["lgmrf", "-i", "SIG", "--lambda", "inf"],
        ["kalofolias", "-i", "SIG", "--alpha", "inf"],
        ["corr", "-i", "SIG", "--q", "2"], ["corr", "-i", "SIG", "--q", "nan"],
        ["pcorr", "-i", "SIG", "--q", "0"],
        *([m] for m in ("corr", "pcorr", "glasso", "lgmrf", "nlasso", "dong", "kalofolias",
                        "edge-select", "spectral", "spectral-partial", "deconv", "sem",
                        "svarm", "dsem")),
        ["sem", "-i", "SIG"], ["dsem", "-i", "SIG"],
        ["psd-filter"], ["sym-filter"], ["psd-filter", "--xcov", "SIG"],
        ["sym-filter", "--xcov", "SIG"]])
    def test_out_of_range_parameter_is_usage_error(self, tmp_path, capsys, argv):
        # these once ended in a traceback (exit 1), a data error (exit 3)
        # or, for q, a silent exit 0; a missing -i, or a missing --exo for
        # sem and dsem, raised TypeError (exit 1), and a missing --xcov or
        # --wcov of the filter methods was a data error (exit 3)
        sig = tmp_path / "sig.csv"
        ser.write_matrix_csv(sig, np.random.default_rng(2).standard_normal((5, 50)))
        argv = [str(sig) if a == "SIG" else a for a in argv]
        assert self.run("learn", *argv, "-o", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        if argv[0].endswith("-filter"):
            assert f"learn {argv[0]} needs {'--wcov' if '--xcov' in argv else '--xcov'}" in err
        elif "-i" not in argv:
            assert f"learn {argv[0]} needs -i/--input" in err
        elif len(argv) == 3:
            assert f"learn {argv[0]} needs --exo" in err

    def test_single_vertex_eval(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        ser.write_graph_json(g, ShiftOperator(np.zeros((1, 1)), ShiftKind.ADJACENCY))
        assert self.run("eval", "-i", str(g), "--truth", str(g)) == 0
        assert json.loads(capsys.readouterr().out)["topk_curve"] == []

    def test_spectral_logs_its_solve_at_info(self, tmp_path, capsys):
        # the solve is reported by the stdout record (once an info log line)
        sig = tmp_path / "sig.csv"
        assert self.run("simulate", "diffusion", "--n", "10", "--p", "500",
                        "--seed", "7", "-o", str(sig)) == 0
        assert self.run("learn", "spectral", "-i", str(sig),
                        "-o", str(tmp_path / "s.json")) == 0
        record = learn_record(capsys)
        notes = record["notes"]
        # eps="auto": the active-set walk certifies; iters_used counts its solves
        assert record["iters_used"] >= 1 and "walk_rounds" not in notes
        assert record["status"] == "certified" and "lp_rounds" not in notes
        assert record["kkt_residual"] <= 1e-7 and notes["eps"] > 0
        assert set(record) == RECORD_KEYS  # eps is a note, not a meta field

    def test_exact_spectral_logs_lp_rounds_at_info(self, tmp_path, capsys):
        G = sim.gen_er_graph(10, 0.4, rng=3, require_connected=True)
        cov = tmp_path / "cov.csv"
        ser.write_matrix_csv(cov, sim.diffusion_covariance(G, [1.0, 0.5, 0.2]))
        assert self.run("learn", "spectral", "-i", str(cov), "--eps", "0",
                        "-o", str(tmp_path / "s.json")) == 0
        record = learn_record(capsys)
        # the equality rows fix the shift: no LP solve
        assert record["notes"]["lp_rounds"] == 0 and record["iters_used"] == 0
        assert record["status"] == "exact" and record["kkt_residual"] is None

    def test_spectral_on_a_sample_covariance_csv(self, tmp_path, capsys):
        # a sampled basis is infeasible at eps = 0, so --eps auto solves at
        # twice the gap, as for the signals themselves
        G = sim.gen_er_graph(20, 0.3, rng=1, require_connected=True)
        X = sim.gen_diffusion(G, [1.0, 0.5, 0.2], 5000, rng=2)
        cov = tmp_path / "cov.csv"
        ser.write_matrix_csv(cov, stn.sample_covariance(X))
        assert self.run("learn", "spectral", "-i", str(cov),
                        "-o", str(tmp_path / "s.json")) == 0
        assert ser.read_graph_json(tmp_path / "s.json").data.any()

    @pytest.mark.parametrize("method,generator,extra,status", [
        pytest.param(*case, id=case[0]) for case in [
            ("glasso", "gmrf", [], "converged"), ("lgmrf", "gmrf", [], "converged"),
            ("dong", "gmrf", [], "converged"), ("kalofolias", "gmrf", [], "converged"),
            ("edge-select", "gmrf", ["--noisy", "--k", "5"], "converged"),
            ("spectral-partial", "diffusion", ["--k", "2"], "exact"),
            ("sem", "sem", ["--exo", "EXO"], "converged")]])
    def test_learners_log_their_solve_at_info(self, tmp_path, capsys,
                                              method, generator, extra, status):
        # the solve is reported by the stdout record (once an info log line)
        sig, exo = tmp_path / "sig.csv", tmp_path / "exo.csv"
        assert self.run("simulate", generator, "--n", "6", "--p", "200", "--seed", "3",
                        "-o", str(sig), "--exo-out", str(exo)) == 0
        extra = [str(exo) if a == "EXO" else a for a in extra]
        assert self.run("learn", method, "-i", str(sig), *extra,
                        "-o", str(tmp_path / "g.json")) == 0
        record = learn_record(capsys)
        assert record["iters_used"] >= 1 and record["status"] == status
        if method in ("glasso", "lgmrf"):
            assert record["kkt_residual"] <= 1e-7
        if method == "spectral-partial":  # a partial basis leaves free directions
            assert record["notes"]["lp_rounds"] >= 1
        # the methods' own fields join the record (lgmrf's former "iters"
        # key is the record's iters_used)
        assert set(record) == RECORD_KEYS | METHOD_FIELDS.get(method, set())

    def test_glasso_zero_variance_vertex_exits_4(self, tmp_path, capsys):
        X = np.random.default_rng(23).standard_normal((5, 200))
        X[2] = 0.0
        sig, out = tmp_path / "sig.csv", tmp_path / "g.json"
        ser.write_matrix_csv(sig, X)
        assert self.run("learn", "glasso", "-i", str(sig), "--lambda", "0.1",
                        "-o", str(out)) == 4
        assert "vertex 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glkit.cli", "learn", "nope", "-o", "x"],
            capture_output=True, env=CHILD_ENV)
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "-i", "a.json", "--truth", "b.json", "--jobs", "2"],
        ["spectrum", "--op", "tv", "--graph", "g.json", "-i", "x.csv",
         "--seed", "1"],
        ["simulate", "er", "-o", "x.csv", "--config", "c.json"],
        ["learn", "corr", "-o", "x.json", "--seed", "3"],
        ["learn", "nlasso", "-o", "x.json", "--jobs", "2"]])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv)
        assert exc.value.code == 2

    def test_polish_config_key_rejected(self, tmp_path, capsys):
        # removed SolverConfig fields
        sig = tmp_path / "sig.csv"
        ser.write_matrix_csv(sig, np.eye(4))
        cfg = tmp_path / "cfg.json"
        for payload in ({"polish": False}, {"power_iters": 50}, {"seed": 0},
                        {"step_scale": 0.9}, {"rho": 1.0}, {"feas_tol": 1e-6},
                        {"adapt_rho": True}, {"adapt_factor": 2.0},
                        {"adapt_ratio": 10.0}, {"check_every": 10}):
            cfg.write_text(json.dumps(payload))
            assert self.run("learn", "spectral", "-i", str(sig), "--config",
                            str(cfg), "-o", str(tmp_path / "x.json")) == 2
            assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "5", '{"tol": "abc"}', '{"tol": null}', '{"max_iters": 2.5}',
        '{"tol": Infinity}', '{"tol": NaN}'])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text):
        # Infinity once stopped glasso after one iteration as converged,
        # and NaN ran it to the cap; the rest raised TypeError (exit 1)
        sig = tmp_path / "sig.csv"
        ser.write_matrix_csv(sig, np.random.default_rng(2).standard_normal((4, 50)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert self.run("learn", "glasso", "-i", str(sig), "--config", str(cfg),
                        "-o", str(tmp_path / "x.json")) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["spectral", "deconv"])
    def test_non_numeric_eps_is_usage_error(self, tmp_path, capsys, method):
        sig = tmp_path / "sig.csv"
        ser.write_matrix_csv(sig, np.eye(4))
        assert self.run("learn", method, "-i", str(sig), "--eps", "foo",
                        "-o", str(tmp_path / "x.json")) == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["-3", "20", "0"])
    def test_partial_k_outside_range_is_usage_error(self, tmp_path, capsys, k):
        # -3 once dropped the first three eigenvectors; 20 at N = 8 kept
        # all eight and then exited 4 as infeasible; 0 once kept the
        # non-degenerate modes, which is spectral --eps 0
        sig = tmp_path / "sig.csv"
        assert self.run("simulate", "diffusion", "--n", "8", "--p", "500",
                        "--seed", "4", "-o", str(sig)) == 0
        assert self.run("learn", "spectral-partial", "-i", str(sig), "--k", k,
                        "-o", str(tmp_path / "x.json")) == 2
        assert f"--k {k} outside 1..8" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["edge-select", "spectral-partial"])
    def test_missing_k_is_usage_error(self, cli_inputs, tmp_path, capsys, method):
        # --k once defaulted to 0, which edge-select rejected as "K=0
        # outside 1..15" and spectral-partial read as its non-degenerate modes
        assert self.run("learn", method, "-i", str(cli_inputs / "diff.csv"),
                        "-o", str(tmp_path / "x.json")) == 2
        assert f"learn {method} needs --k" in capsys.readouterr().err

    @pytest.mark.parametrize("data", ["cycle", "er"])
    def test_spectral_eps_zero_solves_the_non_degenerate_modes(self, cli_inputs, tmp_path,
                                                               capsys, data):
        # what spectral-partial --k 0 did: the l1 solve on the modes that
        # estimate_eigenbasis does not flag. A cycle's covariance repeats
        # all but two eigenvalues; the ER graph's repeats none, and there
        # the column copy of the basis rounds differently from the basis
        cov = tmp_path / "cov.csv"
        if data == "cycle":
            C = np.roll(np.eye(6), 1, axis=1)
            ser.write_matrix_csv(cov, sim.diffusion_covariance(C + C.T, [1.0, 0.5, 0.2]))
        else:
            cov = cli_inputs / "cov.csv"
        out = tmp_path / "s.json"
        assert self.run("learn", "spectral", "-i", str(cov), "--eps", "0",
                        "-o", str(out)) == 0
        record = learn_record(capsys)
        basis, flags = sid.estimate_eigenbasis(ser.read_matrix_csv(cov))
        assert flags.sum() == (4 if data == "cycle" else 0)
        assert record.get("degenerate_modes", 0) == flags.sum()
        S, _, _ = sid.infer_shift(basis.vecs[:, ~flags])
        keep = np.abs(S) > mt.DEFAULT_SUPPORT_THRESHOLD * np.abs(S).max()
        W = np.where(keep, S, 0.0)
        np.testing.assert_allclose(ser.read_shift_any(out).data, 0.5 * (W + W.T),
                                   rtol=0, atol=1e-12 * np.abs(S).max())

    def test_dsem_emit_every_zero_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        x, u = tmp_path / "x.csv", tmp_path / "u.csv"
        ser.write_matrix_csv(x, rng.standard_normal((4, 30)))
        ser.write_matrix_csv(u, rng.standard_normal((4, 30)))
        assert self.run("learn", "dsem", "-i", str(x), "--exo", str(u),
                        "--emit-every", "0", "-o", str(tmp_path / "w.json")) == 2
        assert "emit_every" in capsys.readouterr().err

    def test_svarm_zero_lags_is_usage_error(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        ser.write_matrix_csv(x, np.random.default_rng(8).standard_normal((4, 30)))
        assert self.run("learn", "svarm", "-i", str(x), "--lags", "0",
                        "--lambda", "30", "-o", str(tmp_path / "sv.json")) == 2
        assert "lag order" in capsys.readouterr().err

    def test_svarm_default_lambda_recovers_var1_support(self, tmp_path):
        # --lambda defaults to "auto": (T - L) auto_lambda(N L, T - L)
        rng = np.random.default_rng(8)
        A = np.zeros((5, 5))
        A[1, 0] = A[2, 1] = A[4, 3] = 0.6
        X = np.zeros((5, 400))
        for t in range(1, 400):
            X[:, t] = A @ X[:, t - 1] + rng.standard_normal(5)
        x, out = tmp_path / "x.csv", tmp_path / "sv.json"
        ser.write_matrix_csv(x, X)
        assert self.run("learn", "svarm", "-i", str(x), "-o", str(out)) == 0
        np.testing.assert_array_equal(ser.read_shift_any(out).data, A != 0)

    def test_missing_file_is_data_error(self, tmp_path):
        assert self.run("eval", "-i", str(tmp_path / "no.json"),
                        "--truth", str(tmp_path / "no2.json")) == 3

    def test_infeasible_is_solver_error(self, tmp_path):
        ident = tmp_path / "i.csv"
        ser.write_matrix_csv(ident, np.eye(4))
        assert self.run("learn", "deconv", "-i", str(ident),
                        "-o", str(tmp_path / "x.json")) == 4

    def test_single_vertex_spectral_is_solver_error(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        ser.write_matrix_csv(one, np.array([[0.5, 0.1, 0.3]]))
        assert self.run("learn", "spectral", "-i", str(one),
                        "-o", str(tmp_path / "x.json")) == 4
        assert "solver error" in capsys.readouterr().err

    def test_removed_set_flags_exit_2(self, tmp_path):
        # the total scale and the Laplacian set are gone, and so are their flags
        sig = tmp_path / "sig.csv"
        assert self.run("simulate", "diffusion", "--n", "10", "--p", "500",
                        "--seed", "7", "-o", str(sig)) == 0
        for flag in (["--scale", "total"], ["--cset", "laplacian"]):
            with pytest.raises(SystemExit) as exc:
                self.run("learn", "spectral", "-i", str(sig), *flag,
                         "-o", str(tmp_path / "x.json"))
            assert exc.value.code == 2

    def test_reproducible_outputs(self, tmp_path):
        a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        for out in (a1, a2):
            assert self.run("simulate", "smooth", "--n", "8", "--p", "40",
                            "--seed", "11", "-o", str(out)) == 0
        assert a1.read_bytes() == a2.read_bytes()

    def test_spectrum_reconstruct(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        g = tmp_path / "g.json"
        out = tmp_path / "rec.csv"
        self.run("simulate", "smooth", "--n", "8", "--p", "3", "--seed", "2",
                 "-o", str(sig), "--graph-out", str(g))
        assert self.run("spectrum", "--op", "reconstruct", "--graph", str(g),
                        "-i", str(sig), "-o", str(out), "--k", "8") == 0
        errs = json.loads(capsys.readouterr().out)["relative_errors"]
        assert max(errs) <= 1e-10  # k = N keeps everything

    def test_sem_round_trip(self, tmp_path, capsys):
        x, u, g = tmp_path / "x.csv", tmp_path / "u.csv", tmp_path / "w.json"
        assert self.run("simulate", "sem", "--n", "6", "--p", "300",
                        "--seed", "5", "-o", str(x), "--exo-out", str(u),
                        "--graph-out", str(g)) == 0
        est = tmp_path / "west.json"
        assert self.run("learn", "sem", "-i", str(x), "--exo", str(u),
                        "--alpha", "0.01", "-o", str(est)) == 0
        capsys.readouterr()
        assert self.run("eval", "-i", str(est), "--truth", str(g)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recall"] >= 0.9  # near-noiseless sem is identifiable

    def test_svarm_and_dsem_paths(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 200))
        xcsv = tmp_path / "x.csv"
        ser.write_matrix_csv(xcsv, X)
        assert self.run("learn", "svarm", "-i", str(xcsv), "--lags", "2",
                        "--lambda", "30", "-o", str(tmp_path / "sv.json")) == 0
        u = tmp_path / "u.csv"
        ser.write_matrix_csv(u, rng.standard_normal((5, 200)))
        assert self.run("learn", "dsem", "-i", str(xcsv), "--exo", str(u),
                        "--gamma", "0.9", "--alpha", "1.0",
                        "-o", str(tmp_path / "w.json"),
                        "--trajectory-out", str(tmp_path / "traj.json")) == 0
        traj = json.loads((tmp_path / "traj.json").read_text())
        assert len(traj["edge_counts"]) == 200

    def test_filter_identification_paths(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        H = (Q * rng.uniform(0.5, 2.0, 4)) @ Q.T
        Sw = [np.eye(4), np.diag(rng.uniform(0.5, 2.0, 4))]
        for k, S in enumerate(Sw):
            ser.write_matrix_csv(tmp_path / f"w{k}.csv", S)
            ser.write_matrix_csv(tmp_path / f"x{k}.csv", H @ S @ H.T)
        out = tmp_path / "H.csv"
        assert self.run("learn", "sym-filter",
                        "--xcov", str(tmp_path / "x0.csv"),
                        "--xcov", str(tmp_path / "x1.csv"),
                        "--wcov", str(tmp_path / "w0.csv"),
                        "--wcov", str(tmp_path / "w1.csv"),
                        "-o", str(out)) == 0
        Hback = ser.read_matrix_csv(out)
        assert min(np.abs(Hback - H).max(), np.abs(Hback + H).max()) <= 1e-6

    def test_sym_filter_three_processes_n20(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        n = 20
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        H = (Q * (rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n))) @ Q.T
        argv = []
        for k in range(3):
            S = np.eye(n) if k == 0 else np.diag(rng.uniform(0.5, 3.0, n))
            ser.write_matrix_csv(tmp_path / f"w{k}.csv", S)
            ser.write_matrix_csv(tmp_path / f"x{k}.csv", H @ S @ H.T)
            argv += ["--xcov", str(tmp_path / f"x{k}.csv"),
                     "--wcov", str(tmp_path / f"w{k}.csv")]
        out = tmp_path / "H.csv"
        assert self.run("learn", "sym-filter", *argv, "-o", str(out)) == 0
        assert json.loads(capsys.readouterr().out)["identifiable"] is True
        Hback = ser.read_matrix_csv(out)
        assert min(np.abs(Hback - H).max(), np.abs(Hback + H).max()) <= 1e-6


def test_import_leaves_scipy_unloaded():
    # scipy is imported only inside the functions that need it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, glkit; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip() == "[]"


def test_commands_leave_scipy_unloaded(tmp_path):
    # only the eps = 0 spectral-template LPs with free directions import
    # scipy (HiGHS); an exact covariance fixes the shift in closed form
    d = str(tmp_path)
    G = sim.gen_er_graph(10, 0.4, rng=3, require_connected=True)
    ser.write_matrix_csv(tmp_path / "cov.csv", sim.diffusion_covariance(G, [1.0, 0.5, 0.2]))
    script = f"""
import sys
from glkit.cli import main
runs = [
    ["simulate", "gmrf", "--n", "8", "--p", "300", "--seed", "4",
     "-o", "{d}/x.csv", "--graph-out", "{d}/g.json"],
    ["learn", "corr", "-i", "{d}/x.csv", "-o", "{d}/c.json",
     "--table-out", "{d}/t.json"],
    ["learn", "pcorr", "-i", "{d}/x.csv", "-o", "{d}/p.json"],
    ["eval", "-i", "{d}/c.json", "--truth", "{d}/g.json"],
    ["learn", "spectral", "-i", "{d}/cov.csv", "--eps", "0", "-o", "{d}/s.json"],
]
codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_exact_deconvolution_leaves_scipy_unloaded():
    # the equality rows fix the deconvolved shift: no HiGHS solve
    script = """
import sys
import numpy as np
from glkit import simulate, spectralid
G = simulate.gen_er_graph(12, 0.4, rng=5, require_connected=True)
S = G.data * (0.5 / simulate.spectral_radius(G.data))
T = S @ np.linalg.inv(np.eye(12) - S)
S_hat, trace = spectralid.network_deconvolve(0.5 * (T + T.T), eps=0)
print(trace.notes["lp_rounds"], sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_import_leaves_thread_pools_unloaded():
    # the regression learners run one coordinate loop and start no pools
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, glkit; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.strip() == "False"
