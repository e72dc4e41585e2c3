import collections
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SOLVER_MASS, make_spd
from spdot import cli, datasets, experiments, transport
from spdot.adaptation import MASSES, SOLVERS, AdaptationConfig, adapt
from spdot.cli import build_parser, main
from spdot.errors import ConvergenceFailure, InvalidInput, NumericalFailure, SpdotError


def write_spd(path, matrices, labels=None):
    datasets.save_spd_dataset(path, matrices, labels)
    return str(path)


def read_csv_matrix(path):
    with open(path) as fh:
        return np.array(
            [[float(v) for v in line.split(",")] for line in fh.read().splitlines()]
        )


def run_on_file(tmp_path, payload):
    """Exit code of the command that reads ``payload``'s kind, run on it.

    ``payload`` is written as JSON unless it is already bytes.  A rejected
    file must leave no ``--out`` directory.
    """
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    if isinstance(payload, dict) and payload.get("kind") == "timeseries":
        argv = ["covariance", str(bad)]
    else:
        argv = ["adapt", str(bad), write_spd(tmp_path / "s.json", make_spd(2, 2, seed=8))]
    out = tmp_path / "o"
    code = main(argv + ["--out", str(out)])
    assert not out.exists()
    return code


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def _open_counters():
    """Counters filled by an ``open`` audit hook, which stays for the process."""
    counters = []

    def count(event, args):
        if event == "open" and counters and isinstance(args[0], (str, bytes, os.PathLike)):
            counters[-1][os.fsdecode(args[0])] += 1

    sys.addaudithook(count)
    return counters


@pytest.fixture
def opens(_open_counters):
    """Per-path count of every file open (the ``open`` audit event) during the test."""
    counts = collections.Counter()
    _open_counters.append(counts)
    yield counts
    _open_counters.remove(counts)


class TestAdaptCommand:
    def test_self_adaptation_identity_plan(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(3, 6, seed=1))
        out = tmp_path / "out"
        assert main(["adapt", src, src, "--solver", "exact", "--out", str(out)]) == 0
        plan = read_csv_matrix(out / "plan.csv")
        np.testing.assert_array_equal(plan, np.eye(6) / 6)
        adapted = datasets.load_dataset(out / "adapted.json")
        assert adapted.matrices.shape == (6, 3, 3)
        report = read_report(out / "report.json")
        assert set(report["diagnostics"]) == {"plan", "map"}
        plan_report = report["diagnostics"]["plan"]
        assert plan_report["iterations"] is None
        assert plan_report["marginal_residuals"] == [0.0, 0.0]
        assert plan_report["lambda_median_cost"] is None
        assert plan_report["kernel_log10_range"] is None
        assert plan_report["row_perplexity"] == 1.0
        assert report["diagnostics"]["map"]["iterations"] == [0] * 6

    def test_lambda_auto_echoed(self, tmp_path):
        # dim-5 sets keep the data-driven lambda in the smooth regime
        src = write_spd(tmp_path / "s.json", make_spd(5, 5, seed=2))
        tgt = write_spd(tmp_path / "t.json", make_spd(5, 5, seed=3))
        out = tmp_path / "out"
        assert main(["adapt", src, tgt, "--solver", "sinkhorn", "--lambda", "auto",
                     "--out", str(out)]) == 0
        report = read_report(out / "report.json")
        from spdot import adaptation as ad
        cost = ad.build_cost(make_spd(5, 5, seed=2), make_spd(5, 5, seed=3)).values
        m = 0.05 * np.median(cost)
        assert report["lambda_used"] == pytest.approx(1.0 / (2.0 * m * m))
        plan_report = report["diagnostics"]["plan"]
        assert max(plan_report["marginal_residuals"]) <= 1e-6
        assert plan_report["iterations"] > 0
        assert 0 <= plan_report["dual_gradient"] <= transport.SINKHORN_TOL
        lam = report["lambda_used"]
        assert plan_report["lambda_median_cost"] == pytest.approx(lam * np.median(cost))
        assert plan_report["kernel_log10_range"] == pytest.approx(
            -lam * (cost.max() - cost.min()) / np.log(10)
        )
        assert 1.0 <= plan_report["row_perplexity"] <= 5.0

    def test_labels_missing_exits_2(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(2, 4, seed=4))
        assert main(["adapt", src, src, "--solver", "sinkhorn-labels",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_labels_solver_works_with_labels(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(2, 4, seed=5), labels=[0, 0, 1, 1])
        tgt = write_spd(tmp_path / "t.json", make_spd(2, 4, seed=6))
        out = tmp_path / "out"
        code = main(["adapt", src, tgt, "--solver", "sinkhorn-labels",
                     "--lambda", "0.5", "--eta", "0.05", "--out", str(out)])
        assert code == 0
        report = read_report(out / "report.json")
        assert report["eta_used"] == pytest.approx(0.05)
        assert report["diagnostics"]["plan"]["iterations"] > 0
        assert report["diagnostics"]["plan"]["dual_gradient"] <= transport.SINKHORN_TOL
        adapted = datasets.load_dataset(out / "adapted.json")
        assert list(adapted.labels) == [0, 0, 1, 1]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=7))
        assert main(["adapt", str(bad), src, "--out", str(tmp_path / "o")]) == 2
        # and a file that does not exist
        missing = str(tmp_path / "missing.json")
        assert main(["adapt", missing, src, "--out", str(tmp_path / "o")]) == 2
        assert f"{missing}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_spd_record_exits_2(self, tmp_path, capsys):
        payload = {
            "kind": "spd",
            "dim": 2,
            "matrices": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]],
            "labels": None,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=8))
        assert main(["adapt", str(bad), src, "--out", str(tmp_path / "o")]) == 2
        assert "matrix 1" in capsys.readouterr().err

    def test_first_bad_record_named(self, tmp_path, capsys):
        # record 1 is not SPD and record 2 has the wrong size: the first wins
        payload = {
            "kind": "spd",
            "dim": 2,
            "matrices": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [1.0]],
            "labels": None,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=8))
        assert main(["adapt", str(bad), src, "--out", str(tmp_path / "o")]) == 2
        assert "matrix 1 has smallest eigenvalue" in capsys.readouterr().err
        payload["matrices"][1] = [1.0, 0.0, 0.0, 1.0]
        bad.write_text(json.dumps(payload))
        assert main(["adapt", str(bad), src, "--out", str(tmp_path / "o")]) == 2
        assert "matrix 2 has 1 entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, named",
        [
            ([], "expected a JSON object, got list"),
            ("spd", "expected a JSON object, got str"),
            ({"kind": "spd", "dim": 2, "matrices": [[1, 0, 0, 1], [1, "a", 0, 1]]},
             "matrix 1 is not numeric"),
            ({"kind": "spd", "dim": 2, "matrices": [[1, 0, 0, 1], [1, {}, 0, 1]]},
             "matrix 1 is not numeric"),
            ({"kind": "spd", "dim": 1, "matrices": [[1.0], [[2.0]]]},
             "matrix 1 has shape (1, 1), expected a flat list of 1"),
            ({"kind": "spd", "dim": 1, "matrices": [[1.0], 2.0]},
             "matrix 1 has shape (), expected a flat list of 1"),
            ({"kind": "timeseries", "channels": 1, "samples": 2,
              "trials": [[1, 2], [1, "a"]]}, "trial 1 is not numeric"),
            ({"kind": "timeseries", "channels": 1, "samples": 2,
              "trials": [[1, 2], [3]]}, "trial 1 has 1 entries, expected a flat list of 2"),
            # numpy would parse these as 2.0 and 1.0
            ({"kind": "spd", "dim": 2, "matrices": [[1, 0, 0, 1], [1, 0, 0, "2"]]},
             "matrix 1 holds '2', not a JSON number"),
            ({"kind": "spd", "dim": 1, "matrices": [[1.0], [True]]},
             "matrix 1 holds True, not a JSON number"),
            ({"kind": "timeseries", "channels": 1, "samples": 2,
              "trials": [[1, 2], [0.5, 1.5], ["2", 1]]}, "trial 2 holds '2', not a JSON number"),
            ({"kind": "timeseries", "channels": 1, "samples": 2,
              "trials": [[1, 2], [False, 1]]}, "trial 1 holds False, not a JSON number"),
            ({"kind": "timeseries", "channels": 1, "samples": 2,
              "trials": [[1, 2], [1, 10**400]]}, "trial 1 is not numeric"),
            ({"kind": "graph", "dim": 2, "matrices": [[1, 0, 0, 1]]},
             "unknown dataset kind 'graph'"),
            # every record has the same wrong length, so they form an array
            ({"kind": "spd", "dim": 2, "matrices": [[1, 0, 0], [1, 0, 0]]},
             "matrix 0 has 3 entries, expected a flat list of 4"),
            # json.loads raises RecursionError, not JSONDecodeError
            (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply to parse"),
        ],
        ids=["list", "string", "string-entry", "object-entry", "nested-record",
             "scalar-record", "string-sample", "short-trial", "numeric-string-entry",
             "bool-entry", "numeric-string-sample", "bool-sample", "huge-int-sample",
             "unknown-kind", "all-records-short", "deep-nesting"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, payload, named):
        assert run_on_file(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "bad.json") in err and named in err

    @pytest.mark.parametrize("command", ["adapt", "covariance"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"kind": "\xff"}')
        argv = [command, str(bad)]
        if command == "adapt":
            argv.append(write_spd(tmp_path / "s.json", make_spd(2, 2, seed=8)))
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, named",
        [
            ({"kind": "spd", "dim": 2.5}, "dim must be an integer >= 1, got 2.5"),
            ({"kind": "spd", "dim": 2.0}, "dim must be an integer >= 1, got 2.0"),
            ({"kind": "spd", "dim": True}, "dim must be an integer >= 1, got True"),
            ({"kind": "spd", "dim": "2"}, "dim must be an integer >= 1, got '2'"),
            ({"kind": "spd", "dim": 0}, "dim must be an integer >= 1, got 0"),
            ({"kind": "spd"}, "dim must be an integer >= 1, got None"),
            ({"kind": "timeseries", "channels": 1.9, "samples": 2},
             "channels must be an integer >= 1, got 1.9"),
            ({"kind": "timeseries", "channels": 1, "samples": 2.2},
             "samples must be an integer >= 1, got 2.2"),
            ({"kind": "timeseries", "channels": 1, "samples": False},
             "samples must be an integer >= 1, got False"),
        ],
        ids=["dim-float", "dim-integral-float", "dim-bool", "dim-string", "dim-zero",
             "dim-missing", "channels-float", "samples-float", "samples-bool"],
    )
    def test_header_fields_are_integers(self, tmp_path, capsys, header, named):
        # the records fit the header's integer part, so only its type is wrong
        records = {"matrices": [[1.0, 0.0, 0.0, 1.0]], "trials": [[0.5, 1.5]]}
        key = "matrices" if header["kind"] == "spd" else "trials"
        assert run_on_file(tmp_path, {**header, key: records[key]}) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "labels, named",
        [
            ([0.5, 1.7], "label 0 is 0.5"),
            ([0, 1.0], "label 1 is 1.0"),
            ([True, False], "label 0 is True"),
            (["a", "b"], "label 0 is 'a'"),
            ([0, 2**63], f"label 1 is {2**63}"),
            ([0], "labels must be a list of 2 integers"),
            ("ab", "labels must be a list of 2 integers"),
        ],
        ids=["float", "integral-float", "bool", "string", "overflow", "short",
             "not-a-list"],
    )
    def test_non_integer_labels_exit_2(self, tmp_path, capsys, labels, named):
        payload = {
            "kind": "spd",
            "dim": 2,
            "matrices": [[1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 1.0]],
            "labels": labels,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=8))
        assert main(["adapt", str(bad), src, "--solver", "sinkhorn-labels",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and named in err
        assert not (tmp_path / "o").exists()

    def test_integer_entries_load_as_floats(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({"kind": "spd", "dim": 2,
                                    "matrices": [[2, 0, 0, 1], [1, 0.5, 0.5, 1]]}))
        matrices = datasets.load_dataset(path).matrices
        assert matrices.dtype == float
        assert matrices.tolist() == [[[2, 0], [0, 1]], [[1, 0.5], [0.5, 1]]]

    def test_integer_labels_load_as_integers(self, tmp_path):
        path = write_spd(tmp_path / "s.json", make_spd(2, 3, seed=8), labels=[2, 0, -1])
        labels = datasets.load_dataset(path).labels
        assert labels.dtype == np.int64 and labels.tolist() == [2, 0, -1]

    def test_dim_mismatch_exits_2(self, tmp_path):
        a = write_spd(tmp_path / "a.json", make_spd(2, 3, seed=9))
        b = write_spd(tmp_path / "b.json", make_spd(3, 3, seed=10))
        assert main(["adapt", a, b, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_solver_failure_exits_3_with_step(self, tmp_path, capsys):
        # a pair of identities: zero cost, so the auto lambda has no scale
        src = write_spd(tmp_path / "s.json", np.eye(3)[None])
        code = main(["adapt", src, src, "--solver", "sinkhorn", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[step: plan] adaptive_lambda: cost median is zero" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("metric", ["euclidean", "riemannian"])
    def test_metric_flag_is_gone(self, tmp_path, metric):
        src = write_spd(tmp_path / "s.json", make_spd(2, 3, seed=11))
        out = tmp_path / "o"
        assert main(["adapt", src, src, "--metric", metric, "--out", str(out)]) == 2
        assert not out.exists()

    def test_exact_solver_with_kde_exits_3_with_step(self, tmp_path, capsys):
        # the exact solver takes only uniform marginals: the plan stage fails
        src = write_spd(tmp_path / "s.json", make_spd(3, 5, seed=52))
        tgt = write_spd(tmp_path / "t.json", make_spd(3, 5, seed=53))
        code = main(["adapt", src, tgt, "--solver", "exact", "--mass", "kde",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[step: plan] exact_ot needs uniform marginals" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_marginal_failure_exits_3_with_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(transport, "NEWTON_MAX_STEPS", 1)
        src = write_spd(tmp_path / "s.json", make_spd(3, 12, seed=50))
        tgt = write_spd(tmp_path / "t.json", make_spd(3, 10, seed=51))
        code = main(["adapt", src, tgt, "--solver", "sinkhorn", "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "[step: plan] sinkhorn: dual gradient" in err
        assert "after 1 Newton steps (cap 1)" in err
        assert not (tmp_path / "o").exists()

    def test_top_k_flag(self, tmp_path):
        # the truncation is set only through AdaptationConfig.top_k
        src = write_spd(tmp_path / "s.json", make_spd(5, 5, seed=12))
        out = tmp_path / "out"
        assert main(["adapt", src, src, "--top-k", "2", "--out", str(out)]) == 2
        assert not out.exists()

    def test_report_carries_rerun_information(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(5, 4, seed=14))
        tgt = write_spd(tmp_path / "t.json", make_spd(5, 4, seed=15))
        out = tmp_path / "out"
        assert main(["adapt", src, tgt, "--solver", "sinkhorn", "--out", str(out)]) == 0
        report = read_report(out / "report.json")
        assert report["artifact"]["name"] == "spdot"
        assert set(report["config"]) == {
            f.name for f in dataclasses.fields(AdaptationConfig)
        }
        assert report["config"]["solver"] == "sinkhorn"
        for path, meta in report["inputs"].items():
            assert len(meta["sha256"]) == 64
        assert set(report["inputs"]) == {src, tgt}
        assert set(report["timings"]["stage_s"]) == {"mass", "cost", "plan", "map"}

    @pytest.mark.parametrize("fields", SOLVER_MASS)
    def test_report_writes_diagnostics_verbatim(self, tmp_path, fields):
        src = write_spd(tmp_path / "s.json", make_spd(3, 6, seed=72), [0, 0, 0, 1, 1, 1])
        tgt = write_spd(tmp_path / "t.json", make_spd(3, 6, seed=73))
        out = tmp_path / "out"
        flags = [a for k, v in fields.items()
                 for a in ("--lambda" if k == "lam" else f"--{k}", str(v))]
        assert main(["adapt", src, tgt, *flags, "--out", str(out)]) == 0
        report = read_report(out / "report.json")
        config = AdaptationConfig(**fields)
        assert report["config"] == dataclasses.asdict(config)
        source, target = datasets.load_dataset(src), datasets.load_dataset(tgt)
        labels = source.labels if config.solver == "sinkhorn-labels" else None
        result = adapt(source.matrices, target.matrices, labels, config)
        assert report["diagnostics"] == result.diagnostics
        assert set(report["timings"]["stage_s"]) == set(result.stage_s)

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_unknown_flag_exits_2(self, tmp_path):
        assert main(["adapt", "a", "b", "--frobnicate"]) == 2
        assert main(["adapt", "a", "b", "--frobnicate"]) == 2
        # the pipeline is deterministic, so adapt takes no seed
        src = write_spd(tmp_path / "s.json", make_spd(2, 3, seed=16))
        out = tmp_path / "out"
        assert main(["adapt", src, src, "--seed", "9", "--out", str(out)]) == 2
        assert not out.exists()


class TestToyCommands:
    def test_toy_a_csv(self, tmp_path):
        out = tmp_path / "a"
        assert main(["toy-a", "--n", "8", "--grid", "5", "--seed", "7",
                     "--out", str(out)]) == 0
        lines = (out / "toy_a.csv").read_text().splitlines()
        assert lines[0] == "theta,recovery_error,diagonal_mass,objective"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) <= 1e-6

    def test_toy_a_deterministic(self, tmp_path):
        for d in ("r1", "r2"):
            assert main(["toy-a", "--n", "6", "--grid", "4", "--seed", "3",
                         "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "r1" / "toy_a.csv").read_bytes() == (
            tmp_path / "r2" / "toy_a.csv"
        ).read_bytes()

    def test_toy_b_report(self, tmp_path):
        out = tmp_path / "b"
        assert main(["toy-b", "--n", "10", "--grid", "64", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = (out / "toy_b.csv").read_text().splitlines()
        assert lines[0] == "theta,recovery_error,diagonal_mass,objective"
        assert len(lines) == 65
        assert all(row.split(",")[1] == "nan" for row in lines[1:])
        report = read_report(out / "report.json")
        assert 0.0 <= report["best_theta"] < 2 * np.pi
        assert report["best_objective"] <= report["objective_at_zero"]

    @pytest.mark.parametrize("argv, message", [
        (["toy-a", "--grid", "0", "--n", "8"], "--grid must be at least 1"),
        (["toy-a", "--grid", "-2", "--n", "8"], "--grid must be at least 1"),
        (["toy-a", "--grid", "3", "--n", "0"], "count >= 1"),
        (["toy-b", "--grid", "0"], "--grid must be at least 1"),
        (["toy-b", "--grid", "3", "--n", "3"], "at least 4 points"),
        (["cosine", "--n", "0"], "cosine_trials needs n >= 1"),
        (["cosine", "--channels", "0"], "cosine_trials needs n >= 1"),
        (["cosine", "--samples", "1"], "cosine_trials needs n >= 1"),
        (["adapt", "s.json", "t.json", "--lambda", "abc"],
         "lambda must be 'auto' or a number, got 'abc'"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flags", [
        (["toy-a", "--n", "6", "--grid", "3", "--seed", "2"],
         {"n": 6, "grid": 3, "seed": 2}),
        (["toy-b", "--n", "8", "--grid", "3", "--theta-star", "0.5"],
         {"n": 8, "grid": 3, "theta_star": 0.5, "seed": 0}),
        (["cosine", "--n", "3", "--channels", "2", "--samples", "20", "--ts", "0.02"],
         {"n": 3, "channels": 2, "samples": 20, "ts": 0.02, "seed": 0}),
    ], ids=["toy-a", "toy-b", "cosine"])
    def test_report_config_is_the_parsed_flags(self, tmp_path, argv, flags):
        # every flag but --out, defaults included
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0
        report = read_report(out / "report.json")
        assert report["config"] == flags
        assert report["command"] == argv[0]

    def test_failed_sweep_exits_3(self, tmp_path, monkeypatch):
        from spdot import experiments

        def fail(**kw):
            raise ConvergenceFailure("no plan")

        monkeypatch.setattr(experiments, "toy_a_sweep", fail)
        out = tmp_path / "o"
        assert main(["toy-a", "--grid", "3", "--n", "8", "--out", str(out)]) == 3
        assert not out.exists()


class TestCosineAndCovariance:
    def test_cosine_outputs(self, tmp_path):
        out = tmp_path / "cos"
        assert main(["cosine", "--n", "6", "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "cosine.csv").read_text().splitlines()
        assert lines[0] == "config,diagonal_mass,objective"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == [
            "raw-euclidean",
            "cov-euclidean",
            "cov-riemannian",
        ]
        ts = datasets.load_dataset(out / "source_timeseries.json")
        assert ts.trials.shape == (6, 5, 101)

    def test_cosine_draws_trials_once(self, tmp_path, monkeypatch):
        from spdot import experiments

        calls = []
        draw = experiments.cosine_trials
        monkeypatch.setattr(
            experiments, "cosine_trials", lambda **kw: calls.append(kw) or draw(**kw)
        )
        assert main(["cosine", "--n", "5", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        want = experiments.three_config_comparison(seed=3, n=5)
        rows = (tmp_path / "cosine.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [
            rep.diagonal_mass for rep in want.values()
        ]

    def test_covariance_roundtrip(self, tmp_path):
        out = tmp_path / "cos"
        main(["cosine", "--n", "5", "--seed", "4", "--out", str(out)])
        cov_out = tmp_path / "cov"
        assert main(["covariance", str(out / "source_timeseries.json"),
                     "--out", str(cov_out)]) == 0
        ds = datasets.load_dataset(cov_out / "covariances.json")
        assert ds.matrices.shape == (5, 5, 5)

    def test_covariance_rank_deficient_exits_3(self, tmp_path, capsys):
        trials = np.zeros((2, 3, 20))
        trials[0] = np.random.default_rng(5).standard_normal((3, 20))
        path = tmp_path / "ts.json"
        datasets.save_timeseries_dataset(path, trials)
        assert main(["covariance", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "trial 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_covariance_wrong_kind_exits_2(self, tmp_path, capsys):
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=6))
        assert main(["covariance", src, "--out", str(tmp_path / "o")]) == 2
        # and adapt given a timeseries file
        ts = tmp_path / "ts.json"
        datasets.save_timeseries_dataset(ts, np.ones((2, 2, 3)))
        assert main(["adapt", str(ts), src, "--out", str(tmp_path / "o")]) == 2
        assert "expected an 'spd' dataset" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, monkeypatch, sub):
        # an --out that is, or runs through, an existing file: one error
        # line, before any computation
        ts = tmp_path / "ts.json"
        datasets.save_timeseries_dataset(
            ts, np.random.default_rng(22).standard_normal((2, 2, 5))
        )
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        computed = []
        monkeypatch.setattr(experiments, "covariances", lambda *a, **k: computed.append(a))
        assert main(["covariance", str(ts), "--out", str(afile / sub)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {afile / sub}: ") and err.count("\n") == 1
        assert afile.read_text() == "keep\n"
        assert computed == []

    @pytest.mark.parametrize("bad",[float("nan"), float("inf"), float("-inf")])
    def test_non_finite_trial_exits_2(self, tmp_path, capsys, bad):
        payload = {"kind": "timeseries", "channels": 2, "samples": 3,
                   "trials": [[1, 2, 3, 4, 5, 7], [1, 2, 3, 4, bad, 7]]}
        assert run_on_file(tmp_path, payload) == 2
        assert "trial 1 has non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("ts", ["nan", "inf", "-inf"])
    def test_non_finite_ts_exits_2(self, tmp_path, capsys, ts):
        out = tmp_path / "o"
        assert main(["cosine", "--n", "2", f"--ts={ts}", "--out", str(out)]) == 2
        assert "finite ts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ts_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["cosine", "--n", "2", "--ts", "1e307", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "finite ts and phases, got ts=1e+307" in err and "trial 0" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_exits_2(self, tmp_path, capsys):
        # finite samples whose products overflow: rejected before --out exists
        path = tmp_path / "ts.json"
        trials = np.random.default_rng(23).standard_normal((2, 2, 5)) * 1e160
        datasets.save_timeseries_dataset(path, trials)
        out = tmp_path / "o"
        assert main(["covariance", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trial 0: ") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_trials_exit_2(self, tmp_path):
        path = tmp_path / "ts.json"
        path.write_text(json.dumps({
            "kind": "timeseries", "channels": 2, "samples": 5,
            "trials": [], "labels": None,
        }))
        assert main(["covariance", str(path), "--out", str(tmp_path / "o")]) == 2


class TestFullRoundTrip:
    def test_cosine_covariance_adapt(self, tmp_path):
        cos = tmp_path / "cos"
        assert main(["cosine", "--n", "8", "--seed", "11", "--out", str(cos)]) == 0
        cov_s = tmp_path / "cov_s"
        cov_t = tmp_path / "cov_t"
        assert main(["covariance", str(cos / "source_timeseries.json"),
                     "--out", str(cov_s)]) == 0
        assert main(["covariance", str(cos / "target_timeseries.json"),
                     "--out", str(cov_t)]) == 0
        out = tmp_path / "adapted"
        assert main(["adapt", str(cov_s / "covariances.json"),
                     str(cov_t / "covariances.json"),
                     "--solver", "sinkhorn", "--lambda", "auto",
                     "--out", str(out)]) == 0
        adapted = datasets.load_dataset(out / "adapted.json")
        assert adapted.matrices.shape == (8, 5, 5)
        plan = read_csv_matrix(out / "plan.csv")
        assert plan.shape == (8, 8)
        np.testing.assert_allclose(plan.sum(axis=1), 1 / 8, atol=1e-6)

    def test_all_files_reparse(self, tmp_path):
        cos = tmp_path / "cos"
        main(["cosine", "--n", "4", "--seed", "12", "--out", str(cos)])
        datasets.load_dataset(cos / "source_timeseries.json")
        datasets.load_dataset(cos / "target_timeseries.json")
        read_report(cos / "report.json")

    def test_dataset_save_load_bit_exact(self, tmp_path):
        pts = make_spd(3, 4, seed=13)
        path = tmp_path / "d.json"
        datasets.save_spd_dataset(path, pts, labels=[1, 2, 3, 4])
        ds = datasets.load_dataset(path)
        assert np.array_equal(ds.matrices, pts)
        assert list(ds.labels) == [1, 2, 3, 4]
        assert ds.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert datasets.SpdDataset(pts).sha256 is None

    def test_each_input_read_once_and_hashed(self, tmp_path, opens):
        # the report's digest is of the bytes the one read parsed: the
        # SHA-256 of the file
        cos = tmp_path / "cos"
        assert main(["cosine", "--n", "6", "--seed", "3", "--out", str(cos)]) == 0
        src = write_spd(tmp_path / "s.json", make_spd(3, 5, seed=21))
        tgt = write_spd(tmp_path / "t.json", make_spd(3, 5, seed=22))
        runs = {
            "cov": ["covariance", str(cos / "source_timeseries.json")],
            "adapted": ["adapt", src, tgt, "--solver", "sinkhorn"],
        }
        for name, argv in runs.items():
            inputs = [a for a in argv[1:] if a.endswith(".json")]
            opens.clear()
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            assert {p: opens[p] for p in inputs} == {p: 1 for p in inputs}
            report = read_report(tmp_path / name / "report.json")
            assert report["inputs"] == {
                p: {"sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
                for p in inputs
            }

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "kind": "spd",
                "dim": 2,
                "matrices": [
                    [1 / 3, -0.0, -0.0, 2.5],
                    [1.7976931348623157e308, 5e-324, 5e-324, 0.1],
                ],
                "labels": [3, -1],
            },
            {"kind": "spd", "dim": 1, "matrices": [[1 / 3], [2.0]],
             "labels": [2**63 - 1, 1 - 2**63]},
            {"kind": "timeseries", "channels": 1, "samples": 2,
             "trials": [[1 / 3, 2.5], [-0.0, 5e-324]], "labels": None},
        ],
    )
    def test_dump_matches_indented_json(self, tmp_path, payload):
        """A saved file is ``json.dumps`` of its payload and a newline: one
        line, not indented."""
        path = tmp_path / "d.json"
        if payload["kind"] == "spd":
            shape = (payload["dim"],) * 2
            save, records = datasets.save_spd_dataset, payload["matrices"]
        else:
            shape = (payload["channels"], payload["samples"])
            save, records = datasets.save_timeseries_dataset, payload["trials"]
        labels = payload["labels"]
        save(path, np.reshape(records, (-1, *shape)),
             None if labels is None else np.array(labels))
        assert path.read_text() == json.dumps(payload) + "\n"

    @pytest.mark.parametrize(
        "kind, stack, labels",
        [
            pytest.param("spd", [[[1.0, 0.0], [0.0, float("nan")]]], None, id="nan"),
            pytest.param("spd", [[[1.0, 0.0], [0.0, float("inf")]]], None, id="inf"),
            pytest.param("spd", [[[1.0, 0.0], [0.0, -1.0]]], None, id="not-pd"),
            pytest.param("spd", [[[1.0, 0.5], [0.0, 1.0]]], None, id="not-symmetric"),
            pytest.param("spd", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], None, id="not-square"),
            pytest.param("spd", np.zeros((0, 2, 2)), None, id="no-matrices"),
            pytest.param("spd", np.eye(2), None, id="one-matrix"),
            pytest.param("timeseries", [[[1.0, float("-inf")]]], None, id="ts-inf"),
            pytest.param("timeseries", np.zeros((0, 2, 3)), None, id="ts-no-trials"),
            pytest.param("timeseries", np.zeros((2, 0, 3)), None, id="ts-no-channels"),
            pytest.param("timeseries", np.zeros((2, 3)), None, id="ts-one-trial"),
            pytest.param("spd", [np.eye(2)] * 2, [0], id="label-count"),
            pytest.param("spd", [np.eye(2)] * 2, [0.0, 1.0], id="label-float"),
            pytest.param("spd", [np.eye(2)] * 2, [True, False], id="label-bool"),
            pytest.param("spd", [np.eye(2)] * 2, [[0], [1]], id="label-shape"),
            pytest.param("spd", [np.eye(2)] * 2, np.array([0, 2**63], dtype=np.uint64),
                         id="label-range"),
            pytest.param("timeseries", np.ones((2, 1, 2)), 1, id="label-scalar"),
        ],
    )
    def test_save_rejects_what_load_rejects(self, tmp_path, kind, stack, labels):
        """A save the loader would reject raises and leaves no file."""
        save = {"spd": datasets.save_spd_dataset,
                "timeseries": datasets.save_timeseries_dataset}[kind]
        path = tmp_path / "d.json"
        with pytest.raises(SpdotError):
            save(path, stack, labels)
        assert not path.exists()

    def test_csv_bytes(self, tmp_path):
        values = [float("nan"), -0.0, 5e-324, 1 / 3]
        text = "nan,-0,4.9406564584124654e-324,0.33333333333333331"
        path = tmp_path / "w.csv"
        cli._write_csv(path, np.array([values]))
        assert path.read_text() == text + "\n"
        cli._write_csv(path, [("x y", *values), ["z", 2]], ["name", "a", "b", "c", "d"])
        assert path.read_text() == f"name,a,b,c,d\nx y,{text}\nz,2\n"

    @pytest.mark.parametrize("chain_seed", [1000, 7919000])
    def test_benchmark_smoke_chain(self, tmp_path, chain_seed):
        """The cli-cosine benchmark's smoke chain; files read back as it reads them."""
        o = tmp_path
        codes = [main(argv) for argv in [
            ["cosine", "--n", "8", "--channels", "4", "--seed", str(chain_seed),
             "--out", str(o / "cos")],
            ["covariance", str(o / "cos" / "source_timeseries.json"),
             "--out", str(o / "cov_s")],
            ["covariance", str(o / "cos" / "target_timeseries.json"),
             "--out", str(o / "cov_t")],
            ["adapt", str(o / "cov_s" / "covariances.json"),
             str(o / "cov_t" / "covariances.json"),
             "--mass", "kde", "--solver", "sinkhorn", "--out", str(o / "adapted")],
        ]]
        assert codes == [0, 0, 0, 0]
        raw = json.loads((o / "adapted" / "adapted.json").read_text(encoding="utf-8"))
        adapted = np.array(raw["matrices"], dtype=float).reshape(-1, raw["dim"], raw["dim"])
        gamma = np.loadtxt(o / "adapted" / "plan.csv", delimiter=",", ndmin=2)
        assert adapted.shape == (8, 4, 4) and gamma.shape == (8, 8)
        assert np.array_equal(adapted, datasets.load_dataset(o / "adapted" / "adapted.json").matrices)
        assert np.array_equal(gamma, read_csv_matrix(o / "adapted" / "plan.csv"))
        assert (gamma >= 0).all() and gamma.sum() == pytest.approx(1.0)


class TestExitCodes:
    """One rule maps library errors to exit codes, the same for every command."""

    @pytest.mark.parametrize("command", ["adapt", "toy-a", "toy-b", "cosine", "covariance"])
    @pytest.mark.parametrize(
        "error, step, code",
        [(InvalidInput, None, 2), (InvalidInput, "plan", 3), (NumericalFailure, None, 3)],
        ids=["input", "input-with-step", "numerical"],
    )
    def test_library_error_exit_code(self, tmp_path, monkeypatch, capsys, command,
                                     error, step, code):
        def fail(*args, **kwargs):
            exc = error("injected")
            exc.pipeline_step = step
            raise exc

        src = write_spd(tmp_path / "s.json", make_spd(2, 3, seed=20))
        ts = tmp_path / "ts.json"
        datasets.save_timeseries_dataset(
            ts, np.random.default_rng(21).standard_normal((2, 2, 5))
        )
        owner, call, argv = {
            "adapt": (cli, "adapt", ["adapt", src, src]),
            "toy-a": (experiments, "toy_a_sweep", ["toy-a", "--n", "8", "--grid", "2"]),
            "toy-b": (experiments, "toy_b_search", ["toy-b", "--n", "8", "--grid", "2"]),
            "cosine": (experiments, "_compare_configs", ["cosine", "--n", "2"]),
            "covariance": (experiments, "covariances", ["covariance", str(ts)]),
        }[command]
        monkeypatch.setattr(owner, call, fail)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == code
        assert "error: injected" in capsys.readouterr().err
        assert not out.exists()

    def test_adapt_choices_come_from_the_config(self, capsys):
        assert main(["adapt", "--help"]) == 0
        usage = capsys.readouterr().out
        for choices in (SOLVERS, MASSES):
            assert "{" + ",".join(choices) + "}" in usage
