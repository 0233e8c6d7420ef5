"""Command-line interface: exit codes, output shape, config precedence."""

import json

import pytest

from dirp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestNorms:
    def test_fibonacci_norms(self, capsys):
        doc = run_json(capsys, "norms", "fib:10", "--direction",
                       "dir:[1, quad:(1+sqrt5)/2]")
        res = doc["result"]
        assert res["l2"]["value"].startswith("4.44288293")  # pi sqrt2
        assert res["grad"]["value"].startswith("464.8")     # sqrt(10946) l2
        assert doc["version"] and doc["config"]["seed"] == 1234

    def test_dimension_mismatch_is_input_error(self, capsys):
        code, _, err = run(capsys, "norms", "fib:10",
                           "--direction", "dir:[1, 2, 3]")
        assert code == 2 and "error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "norms", "@/nonexistent.json",
                         "--direction", "dir:[1, 2]")
        assert code == 2


class TestRatio:
    def test_liouville_collapse(self, capsys):
        doc = run_json(capsys, "ratio", "liouville:3", "--direction",
                       "dir:[1, liouville:10]", "--preset", "thm1")
        value = float(doc["result"]["ratio"]["value"])
        assert abs(value - 1.006e-12) < 1e-14

    def test_delta_preset(self, capsys):
        doc = run_json(capsys, "ratio", "fib:5", "--direction",
                       "dir:[1, quad:(1+sqrt5)/2]", "--preset", "delta:1")
        assert doc["result"]["exponents"] == ["1/2", "1/2"]

    def test_precision_cap_is_exit_3(self, capsys):
        # liouville:N needs more than (N+1)! digits: 9! > 100000 = max_digits
        code, _, err = run(capsys, "ratio", "liouville:8", "--direction",
                           "dir:[1, liouville:10]")
        assert code == 3 and "max_digits=100000" in err

    def test_precision_cap_follows_max_digits(self, capsys):
        code, _, err = run(capsys, "ratio", "liouville:5", "--direction",
                           "dir:[1, liouville:10]", "--max-digits", "720")
        assert code == 3 and "max_digits=720" in err


class TestLattice:
    def test_sqrt2_floor(self, capsys):
        doc = run_json(capsys, "lattice", "--direction", "dir:[quad:sqrt2, 1]",
                       "--radius", "100")
        res = doc["result"]
        assert res["minimum"]["value"].startswith("0.58578643762690495")
        assert res["argmin"] == [1, -1]

    def test_zero_witness(self, capsys):
        doc = run_json(capsys, "lattice", "--direction", "dir:[1, 0]",
                       "--radius", "10")
        assert doc["result"]["exact_zero_witness"] == [0, 1]

    def test_system_form(self, capsys):
        doc = run_json(capsys, "lattice", "--system", "dir:[quad:sqrt2]",
                       "--radius", "50")
        assert doc["result"]["argmin"] == [2]
        assert doc["result"]["dirichlet_envelope_ok"] is True

    def test_square_factor_above_trial_division_is_exact_zero(self, capsys):
        # 200280098 = 2 * 10007^2, so <(10007, -1), alpha> is exactly 0
        doc = run_json(capsys, "lattice", "--direction",
                       "dir:[quad:sqrt2, quad:sqrt200280098]", "--radius", "10010")
        res = doc["result"]
        assert res["exact_zero_witness"] == [10007, -1]
        assert res["argmin"] == [10007, -1]
        assert res["minimum"] == {"digits": 80, "radius": "0", "value": "0"}

    def test_missing_direction_is_input_error(self, capsys):
        code, out, err = run(capsys, "lattice", "--radius", "10")
        assert code == 2 and out == ""
        assert err == "error: lattice needs --direction or --system\n"


class TestCf:
    def test_rational(self, capsys):
        doc = run_json(capsys, "cf", "rat:355/113", "--depth", "10")
        assert doc["result"]["quotients"] == [3, 7, 16]
        assert doc["result"]["finite"] is True

    def test_bound_report(self, capsys):
        doc = run_json(capsys, "cf", "const:e", "--depth", "25", "--bound", "10")
        rep = doc["result"]["bound_report"]
        assert rep["exceeded"] is True and rep["max_quotient"] >= 10

    def test_uncertified_depth_is_exit_4(self, capsys):
        code, out, err = run(capsys, "cf", "dec:2.718", "--depth", "25")
        assert code == 4 and "unresolved" in err
        # the partial expansion is still emitted before the exit code
        assert json.loads(out)["result"]["certified_depth"] < 25


class TestDiffusion:
    def test_csv_output(self, capsys):
        code, out, err = run(capsys, "diffusion", "uniform:-0.5:0.5",
                             "--p", "2", "--t-grid", "0.1,0.05,0.02",
                             "--grid", "1024", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,t,h,method,M,seed"
        assert len(lines) == 4 and lines[1].startswith("2,0.1,")

    def test_bad_rv_is_input_error(self, capsys):
        code, _, _ = run(capsys, "diffusion", "nope:1")
        assert code == 2

    def test_out_file_deterministic(self, tmp_path, capsys):
        target = tmp_path / "fit.json"
        args = ("diffusion", "uniform:0:0.5", "--p", "2",
                "--t-grid", "0.1,0.05", "--grid", "512",
                "--out", str(target))
        assert main(list(args)) == 0
        first = target.read_bytes()
        assert main(list(args)) == 0
        assert target.read_bytes() == first
        capsys.readouterr()
        doc = json.loads(first)
        assert doc["result"]["regime"] == "linear regime"


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ("norms", "fib:5", "--direction", "dir:[1, quad:(1+sqrt5)/2]"),
        ("cf", "rat:355/113"),
        ("lattice", "--direction", "dir:[1, quad:sqrt2]", "--radius", "10"),
    ])
    def test_csv_without_csv_form_writes_json_to_file(self, tmp_path, capsys, argv):
        code, printed, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        target = tmp_path / "out.csv"
        assert main([*argv, "--format", "csv", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        # files carry the JSON without stdout's trailing newline
        assert target.read_text(encoding="utf-8") + "\n" == printed
        assert json.loads(printed)["config"]["format"] == "csv"


class TestConfigPrecedence:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "dirp.cfg"
        cfg.write_text("digits = 40\nseed = 99\n# comment\n")
        doc = run_json(capsys, "cf", "rat:22/7", "--config", str(cfg))
        assert doc["config"]["digits"] == 40 and doc["config"]["seed"] == 99

    def test_env_overrides_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "dirp.cfg"
        cfg.write_text("digits = 40\n")
        monkeypatch.setenv("DIRP_DIGITS", "55")
        doc = run_json(capsys, "cf", "rat:22/7", "--config", str(cfg))
        assert doc["config"]["digits"] == 55

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DIRP_DIGITS", "55")
        doc = run_json(capsys, "cf", "rat:22/7", "--digits", "64")
        assert doc["config"]["digits"] == 64

    def test_flags_accepted_after_subcommand(self, capsys):
        doc = run_json(capsys, "lattice", "--direction", "dir:[1, 0]",
                       "--radius", "5", "--digits", "40")
        assert doc["config"]["digits"] == 40

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("digits 40\n")
        code, _, _ = run(capsys, "cf", "rat:22/7", "--config", str(cfg))
        assert code == 2
