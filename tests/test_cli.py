import json

import pytest

from slopepath import bh_sequence, load_instance, load_path, qs_sequence
from slopepath.cli import main
from slopepath.errors import NumericalError
from slopepath.harness import run_experiment


def run_cli(args):
    return main([str(a) for a in args])


class TestWeightsCommand:
    def test_qs_csv(self, tmp_path, capsys):
        assert run_cli(["weights", "--design", "qs", "--p", "3"]) == 0
        out = capsys.readouterr().out
        values = [float(line) for line in out.strip().splitlines()]
        assert values == pytest.approx(qs_sequence(3))

    def test_json_format(self, capsys):
        assert run_cli(["--format", "json", "weights", "--design", "oscar",
                        "--p", "3", "--q", "1"]) == 0
        values = json.loads(capsys.readouterr().out)
        assert values == [1.0, 2.0, 3.0]

    def test_validation_error_exit_code(self, capsys):
        assert run_cli(["weights", "--design", "bh", "--p", "4", "--q", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestDefaultLevel:
    """Every command that builds a design takes a left-out --q from the one
    table of default levels: bh at q = 0.1."""

    def test_weights(self, capsys):
        assert run_cli(["weights", "--design", "bh", "--p", "8"]) == 0
        values = [float(line) for line in capsys.readouterr().out.split()]
        assert values == bh_sequence(8, 0.1).tolist()

    def test_contour(self, tmp_path):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert run_cli(["contour", "--design", "bh", "--p", "8", "--angles", "12",
                        "--out", default]) == 0
        weights_file = tmp_path / "w.txt"
        weights_file.write_text("\n".join(repr(v) for v in bh_sequence(8, 0.1).tolist()))
        assert run_cli(["contour", "--weights", weights_file, "--angles", "12",
                        "--out", explicit]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_path(self, tmp_path):
        inst_file, out = tmp_path / "inst.csv", tmp_path / "path.jsonl"
        assert run_cli(["simulate", "--scenario", "2", "--p", "6", "--n", "30",
                        "--seed", "1", "--out", inst_file]) == 0
        assert run_cli(["path", "--instance", inst_file, "--design", "bh",
                        "--out", out]) == 0
        assert load_path(out).provenance["ray"]["lam_bar"] == bh_sequence(6, 0.1).tolist()


class TestSimulateAndPath:
    def test_end_to_end(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.csv"
        truth_file = tmp_path / "beta.csv"
        assert run_cli(["simulate", "--scenario", "2", "--p", "4", "--n", "16",
                        "--seed", "9", "--out", inst_file,
                        "--truth", truth_file]) == 0
        inst = load_instance(inst_file)
        assert inst.X.shape == (16, 4)
        assert truth_file.exists()

        path_file = tmp_path / "path.jsonl"
        events_file = tmp_path / "events.csv"
        assert run_cli(["path", "--instance", inst_file, "--design", "qs",
                        "--out", path_file, "--events", events_file,
                        "--validate-every", "5"]) == 0
        path = load_path(path_file)
        assert path.segments
        assert path.provenance["diagnostics"]["events"] >= 1
        ratio = path.provenance["diagnostics"]["min_schur_ratio"]
        diag = path.provenance["diagnostics"]
        err = capsys.readouterr().err
        assert f"min Schur ratio {ratio}" in err
        assert f"{diag['absorbed_events']} absorbed, " \
            f"{sum(diag['suppressed_bounces'].values())} suppressed bounces" in err
        memo = diag["insert_memo"]
        assert f"insert memo {memo['hits']} hits / {memo['misses']} misses" in err
        assert f"{diag['clamped_timings']} clamped timings" in err
        rebuilds = diag["rebuilds"]
        assert sum(rebuilds.values()) == diag["fallback_refactorizations"]
        assert f"rebuilds {rebuilds['schur']} schur / {rebuilds['probe']} probe" in err
        assert f"{diag['stored_knots']} stored knots" in err

        header, *rows = events_file.read_text().strip().splitlines()
        assert header == "index,eta,kind,g,k"
        assert len(rows) == len(path.events)

    def test_explicit_ray_files(self, tmp_path, t2_instance):
        from slopepath import save_instance
        inst_file = tmp_path / "t2.csv"
        save_instance(t2_instance, inst_file)
        lam0 = tmp_path / "lam0.txt"
        lam0.write_text("0\n0\n")
        lambar = tmp_path / "lambar.txt"
        lambar.write_text("0\n1\n")
        out = tmp_path / "path.jsonl"
        assert run_cli(["path", "--instance", inst_file, "--lambda0", lam0,
                        "--lambdabar", lambar, "--out", out]) == 0
        path = load_path(out)
        etas = [e.eta for e in path.breakpoints()]
        assert etas == pytest.approx([2.0, 4.0])

    def test_negative_validate_every_exit_code(self, tmp_path, t2_instance, capsys):
        from slopepath import save_instance
        inst_file = tmp_path / "t2.csv"
        save_instance(t2_instance, inst_file)
        out = tmp_path / "path.jsonl"
        assert run_cli(["path", "--instance", inst_file, "--design", "qs",
                        "--validate-every", "-1", "--out", out]) == 2
        assert "error: validate_every must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta_max", ["0", "-1", "nan"])
    def test_horizon_that_is_not_positive_exit_code(self, tmp_path, t2_instance, capsys,
                                                    eta_max):
        from slopepath import save_instance
        inst_file = tmp_path / "t2.csv"
        save_instance(t2_instance, inst_file)
        out = tmp_path / "path.jsonl"
        assert run_cli(["path", "--instance", inst_file, "--design", "qs",
                        "--eta-max", eta_max, "--out", out]) == 2
        assert "error: eta_max must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestSolveAndCheck:
    @pytest.mark.parametrize("weights", ["nan 1", "0 inf"], ids=["nan", "inf"])
    def test_check_rejects_non_finite_weights(self, tmp_path, t2_instance, capsys, weights):
        # a NaN tolerance or margin would make the report invalid JSON
        from slopepath import save_instance
        inst_file = tmp_path / "t2.csv"
        save_instance(t2_instance, inst_file)
        (tmp_path / "w.txt").write_text(weights + "\n")
        (tmp_path / "beta.txt").write_text("1\n1\n")
        assert run_cli(["check", "--instance", inst_file, "--beta", tmp_path / "beta.txt",
                        "--weights", tmp_path / "w.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weights contain non-finite entries\n"

    def test_solve_then_check(self, tmp_path, t2_instance, capsys):
        from slopepath import save_instance
        inst_file = tmp_path / "t2.csv"
        save_instance(t2_instance, inst_file)
        weights_file = tmp_path / "w.txt"
        weights_file.write_text("0\n2\n")

        assert run_cli(["solve", "--instance", inst_file,
                        "--weights", weights_file]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert solved["optimal"]
        assert solved["beta"] == pytest.approx([1.0, 1.0], abs=1e-7)

        beta_file = tmp_path / "beta.txt"
        beta_file.write_text("1\n1\n")
        assert run_cli(["check", "--instance", inst_file, "--beta", beta_file,
                        "--weights", weights_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["optimal"]

        beta_file.write_text("3\n1\n")
        assert run_cli(["check", "--instance", inst_file, "--beta", beta_file,
                        "--weights", weights_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not report["optimal"]
        assert report["worst_violation"]["condition"] == "cond1"


class TestBench:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["bench", "--scenario", "2", "--sizes", "4x24",
                        "--designs", "qs,bh", "--replicates", "2",
                        "--seed", "3", "--format", "json", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert {row["design"] for row in report["results"]} == {"qs", "bh"}
        assert report["config"]["scenario"] == 2

    def test_table_to_stdout(self, capsys):
        assert run_cli(["bench", "--scenario", "2", "--sizes", "4x24",
                        "--designs", "qs", "--replicates", "2"]) == 0
        assert "qs" in capsys.readouterr().out

    def test_q_sets_the_oscar_offset(self, capsys):
        # --q is the level of every design that has one, oscar's offset too
        assert run_cli(["--format", "json", "bench", "--scenario", "2", "--sizes", "4x24",
                        "--designs", "oscar", "--replicates", "1", "--seed", "0",
                        "--q", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = json.loads(run_experiment(
            scenario=2, sizes=[(4, 24)], designs=["oscar"], replicates=1, seed_base=0,
            design_params={"q_oscar": 0.5}).to_json())
        assert report["config"]["design_params"]["q_oscar"] == 0.5
        assert report["results"] == expected["results"]


class TestContourAndSphericity:
    def test_contour_csv(self, tmp_path):
        out = tmp_path / "contour.csv"
        assert run_cli(["contour", "--design", "qs", "--p", "6",
                        "--angles", "16", "--out", out]) == 0
        header, *rows = out.read_text().strip().splitlines()
        assert header == "beta1,beta2"
        assert len(rows) == 16

    def test_sphericity_csv(self, capsys):
        assert run_cli(["sphericity", "--p-max", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,rho"
        assert lines[1].startswith("1,1.0")

    def test_sphericity_past_the_bound_exit_code(self, capsys):
        assert run_cli(["sphericity", "--p-max", "10000001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: p_max must be at most 10,000,000") \
            and "320 MB" in captured.err


class TestConfigAndErrors:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"design": "qs", "p": 3}))
        assert run_cli(["--config", cfg, "weights"]) == 0
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert values == pytest.approx(qs_sequence(3))

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"design": "qs", "p": 3}))
        assert run_cli(["--config", cfg, "weights", "--p", "2"]) == 0
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert values == pytest.approx(qs_sequence(2))

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, via_config):
        bench = ["bench", "--scenario", "1", "--sizes", "4x20", "--replicates", "1"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"threads": -4}))
            args = ["--config", cfg, *bench]
        else:
            args = ["--threads", "-4", *bench]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be at least 1, got -4\n"

    def test_numerical_error_exit_code(self, monkeypatch, capsys):
        import slopepath.cli as cli_mod

        def boom(args):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_cmd_sphericity", boom)
        parser_args = ["sphericity", "--p-max", "3"]
        assert main(parser_args) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_singular_instance_exit_code(self, tmp_path):
        inst_file = tmp_path / "bad.csv"
        inst_file.write_text("1.0,1.0,1.0\n2.0,2.0,2.0\n")
        weights_file = tmp_path / "w.txt"
        weights_file.write_text("0\n1\n")
        assert run_cli(["solve", "--instance", inst_file,
                        "--weights", weights_file]) == 2


class TestMalformedInput:
    """Bad input files exit 2 with a message naming the file and line."""

    @staticmethod
    def _solve(tmp_path, capsys, instance_text, weights_text="0\n1\n"):
        inst_file = tmp_path / "inst.csv"
        inst_file.write_text(instance_text)
        weights_file = tmp_path / "w.txt"
        weights_file.write_text(weights_text)
        code = run_cli(["solve", "--instance", inst_file, "--weights", weights_file])
        return code, capsys.readouterr().err

    def test_non_numeric_instance_cell(self, tmp_path, capsys):
        code, err = self._solve(tmp_path, capsys, "y,x1,x2\n1.0,1.0,0.0\n2.0,abc,1.0\n")
        assert code == 2
        assert "inst.csv, line 3" in err and "'abc'" in err

    def test_ragged_instance_row(self, tmp_path, capsys):
        code, err = self._solve(tmp_path, capsys, "1.0,1.0,0.0\n2.0,0.0\n")
        assert code == 2
        assert "inst.csv, line 2: 2 cells, the first row has 3" in err

    def test_non_numeric_weights_entry(self, tmp_path, capsys):
        code, err = self._solve(tmp_path, capsys, "1.0,1.0,0.0\n2.0,0.0,1.0\n",
                                weights_text="0\n1,x\n")
        assert code == 2
        assert "w.txt, line 2: not a number: 'x'" in err

    @pytest.mark.parametrize("sidecar, message", [
        ('{"ridge": ', "Expecting value"),
        ('{"ridge": "abc"}', "could not convert string to float: 'abc'"),
        ("[1]", "not a JSON object"),
    ], ids=["not-json", "ridge-not-a-number", "not-object"])
    def test_malformed_instance_sidecar(self, tmp_path, capsys, sidecar, message):
        inst_file = tmp_path / "inst.csv"
        assert run_cli(["simulate", "--scenario", "2", "--p", "4", "--n", "20",
                        "--seed", "0", "--out", inst_file]) == 0
        meta = tmp_path / "inst.csv.meta.json"
        meta.write_text(sidecar)
        out = tmp_path / "p.jsonl"
        assert run_cli(["path", "--instance", inst_file, "--design", "qs",
                        "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta}: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["bench", "--scenario", "1", "--sizes", "20", "--replicates", "1"],
         "--sizes: '20' is not of the form PxN"),
        (["bench", "--scenario", "1", "--sizes", "4x20,20xabc", "--replicates", "1"],
         "--sizes: '20xabc' is not of the form PxN"),
        (["bench", "--scenario", "1", "--sizes", "4x20", "--replicates", "0"],
         "replicates must be at least 1, got 0"),
        (["contour", "--design", "qs", "--p", "4", "--angles", "-1"],
         "n_angles must be at least 1, got -1"),
    ], ids=["sizes-without-x", "sizes-not-a-number", "no-replicates", "negative-angles"])
    def test_malformed_option(self, capsys, args, message):
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["path", "solve"])
    def test_overflowing_gram(self, tmp_path, capsys, command):
        # X = 1e155 I: X^T X = 1e310 I overflows float64
        inst_file = tmp_path / "big.csv"
        inst_file.write_text("1.0,1e155,0.0\n2.0,0.0,1e155\n")
        weights_file = tmp_path / "w.txt"
        weights_file.write_text("0\n1\n")
        args = {"path": ["--lambda0", tmp_path / "zero.txt", "--lambdabar", weights_file,
                         "--out", tmp_path / "path.jsonl"],
                "solve": ["--weights", weights_file]}[command]
        (tmp_path / "zero.txt").write_text("0\n0\n")
        assert run_cli([command, "--instance", inst_file, *args]) == 2
        assert "overflows float64" in capsys.readouterr().err
        assert not (tmp_path / "path.jsonl").exists()


class TestUnreadableFiles:
    """A file that cannot be opened, or a config that is not JSON, exits 2
    with one error line, not a traceback."""

    @staticmethod
    def _files(tmp_path, t2_instance):
        from slopepath import save_instance
        inst_file = tmp_path / "t2.csv"
        save_instance(t2_instance, inst_file)
        weights_file = tmp_path / "w.txt"
        weights_file.write_text("0\n2\n")
        return inst_file, weights_file

    @pytest.mark.parametrize("missing", ["instance", "weights", "config", "out-dir"])
    def test_missing_file_exit_code(self, tmp_path, t2_instance, capsys, missing):
        inst_file, weights_file = self._files(tmp_path, t2_instance)
        nothere = tmp_path / "nothere"
        args = ["solve", "--instance", inst_file, "--weights", weights_file]
        if missing == "instance":
            args[2] = nothere / "inst.csv"
        elif missing == "weights":
            args[4] = nothere / "w.txt"
        elif missing == "config":
            args = ["--config", nothere / "cfg.json", *args]
        else:
            args += ["--out", nothere / "out.json"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(nothere) in err

    def test_config_that_is_not_json(self, tmp_path, t2_instance, capsys):
        inst_file, weights_file = self._files(tmp_path, t2_instance)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{design: qs")
        assert run_cli(["--config", cfg, "solve", "--instance", inst_file,
                        "--weights", weights_file]) == 2
        assert capsys.readouterr().err.startswith(f"error: --config {cfg} is not JSON")

    def test_overflowing_xty_path_exit_code(self, tmp_path, capsys):
        # X^T y = (2e308, 1e308) overflows float64: no silently empty path
        inst_file = tmp_path / "big.csv"
        inst_file.write_text("1e308,1.0,0.0\n1e308,1.0,1.0\n")
        out = tmp_path / "path.jsonl"
        assert run_cli(["path", "--instance", inst_file, "--design", "qs",
                        "--out", out]) == 2
        assert "error: X^T y overflows float64" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_tolerance_that_is_not_positive_exit_code(self, tmp_path, t2_instance,
                                                            capsys):
        inst_file, weights_file = self._files(tmp_path, t2_instance)
        assert run_cli(["solve", "--instance", inst_file, "--weights", weights_file,
                        "--tol", "nan"]) == 2
        assert "error: stop_tolerance must be positive" in capsys.readouterr().err
