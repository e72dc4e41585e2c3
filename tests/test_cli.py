import dataclasses
import json

import numpy as np
import pytest

from conftest import make_spd
from spdot import cli, datasets, experiments, transport
from spdot.adaptation import MASSES, METRICS, SOLVERS, AdaptationConfig
from spdot.cli import build_parser, main
from spdot.errors import ConvergenceFailure, InvalidInput, NumericalFailure


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

    A rejected file must leave no ``--out`` directory.
    """
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
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


class TestAdaptCommand:
    def test_self_adaptation_identity_plan(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(3, 6, seed=1))
        out = tmp_path / "out"
        assert main(["adapt", src, src, "--solver", "exact", "--out", str(out)]) == 0
        plan = read_csv_matrix(out / "plan.csv")
        np.testing.assert_array_equal(plan, np.eye(6) / 6)
        adapted = datasets.load_dataset(out / "adapted.json")
        assert adapted.matrices.shape == (6, 3, 3)
        plan_report = read_report(out / "report.json")["plan"]
        assert plan_report["lambda_median_cost"] is None
        assert plan_report["kernel_log10_range"] is None
        assert plan_report["plan_row_perplexity"] == 1.0

    def test_lambda_auto_echoed(self, tmp_path):
        # dim-5 sets keep the data-driven lambda in the smooth regime
        src = write_spd(tmp_path / "s.json", make_spd(5, 5, seed=2))
        tgt = write_spd(tmp_path / "t.json", make_spd(5, 5, seed=3))
        out = tmp_path / "out"
        assert main(["adapt", src, tgt, "--solver", "sinkhorn", "--lambda", "auto",
                     "--out", str(out)]) == 0
        report = read_report(out / "report.json")
        from spdot import adaptation as ad
        cost = ad.build_cost(make_spd(5, 5, seed=2), make_spd(5, 5, seed=3),
                             "riemannian").values
        m = 0.05 * np.median(cost)
        assert report["lambda_used"] == pytest.approx(1.0 / (2.0 * m * m))
        assert report["plan"]["marginal_residuals"]["source"] <= 1e-6
        assert report["plan"]["iterations"] > 0
        assert report["plan"]["outer_iterations"] == 1
        lam = report["lambda_used"]
        assert report["plan"]["lambda_median_cost"] == pytest.approx(lam * np.median(cost))
        assert report["plan"]["kernel_log10_range"] == pytest.approx(
            -lam * (cost.max() - cost.min()) / np.log(10)
        )
        assert 1.0 <= report["plan"]["plan_row_perplexity"] <= 5.0

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
        assert report["plan"]["iterations"] > 0
        assert report["plan"]["outer_iterations"] > 1
        adapted = datasets.load_dataset(out / "adapted.json")
        assert list(adapted.labels) == [0, 0, 1, 1]

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=7))
        assert main(["adapt", str(bad), src, "--out", str(tmp_path / "o")]) == 2

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
        ],
        ids=["list", "string", "string-entry", "object-entry", "nested-record",
             "scalar-record", "string-sample", "short-trial", "numeric-string-entry",
             "bool-entry", "numeric-string-sample", "bool-sample", "huge-int-sample"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, payload, named):
        assert run_on_file(tmp_path, payload) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "bad.json") in err and named in err

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
        # single identical pair + euclidean metric: zero cost, auto lambda
        # has no scale
        P = make_spd(3, 1, seed=11)
        src = write_spd(tmp_path / "s.json", P)
        code = main(["adapt", src, src, "--solver", "sinkhorn",
                     "--metric", "euclidean", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[step: plan]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_marginal_failure_exits_3_with_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(transport, "SINKHORN_TOL", 1e-2)
        src = write_spd(tmp_path / "s.json", make_spd(3, 12, seed=50))
        tgt = write_spd(tmp_path / "t.json", make_spd(3, 10, seed=51))
        code = main(["adapt", src, tgt, "--solver", "sinkhorn", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[step: plan] sinkhorn: plan marginals off" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_top_k_flag(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(5, 5, seed=12))
        tgt = write_spd(tmp_path / "t.json", make_spd(5, 5, seed=13))
        out = tmp_path / "out"
        assert main(["adapt", src, tgt, "--solver", "sinkhorn", "--top-k", "2",
                     "--out", str(out)]) == 0
        rejected = tmp_path / "rejected"
        assert main(["adapt", src, tgt, "--solver", "sinkhorn", "--top-k", "9",
                     "--out", str(rejected)]) == 2
        assert not rejected.exists()

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
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_covariance_wrong_kind_exits_2(self, tmp_path):
        src = write_spd(tmp_path / "s.json", make_spd(2, 2, seed=6))
        assert main(["covariance", src, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
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

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "kind": "spd",
                "dim": 2,
                "matrices": [
                    [float("nan"), float("inf"), float("-inf"), -0.0],
                    [5e-324, 1.7976931348623157e308, 1.0, 0.1],
                ],
                "labels": [3, -1],
            },
            {"kind": "spd", "dim": 1, "matrices": [], "labels": []},
            {"kind": "timeseries", "channels": 1, "samples": 1,
             "trials": [[], [2.5]], "labels": None},
        ],
    )
    def test_dump_matches_indented_json(self, tmp_path, payload):
        path = tmp_path / "d.json"
        datasets._dump(path, payload)
        assert path.read_text() == json.dumps(payload, indent=1) + "\n"


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
        for choices in (METRICS, SOLVERS, MASSES):
            assert "{" + ",".join(choices) + "}" in usage
