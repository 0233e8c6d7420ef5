"""Command-line interface: exit codes, output shape, config precedence."""

import json
import sys
import time
import warnings

import mpmath
import pytest

from dirp import cli
from dirp.cli import _emit, main
from dirp.directions import parse_direction
from dirp.report import report_to_bytes
from dirp.spectral import TrigPoly, multi_directional_functional


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

    @pytest.mark.parametrize("command", ["norms", "ratio"])
    def test_non_integer_frequency_is_input_error(self, tmp_path, capsys, command):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"dim": 2, "terms": [{"k": [1.5, 2], "re": "1", "im": "0"}]}))
        code, _, err = run(capsys, command, f"@{poly}", "--direction", "dir:[1, 2]")
        assert code == 2 and "malformed TrigPoly JSON" in err


    def test_exponent_beyond_the_digit_limit_is_input_error(self, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"dim": 2, "terms": [{"k": [1, 2], "re": "1e-3000000",
                                                         "im": "0"}]}))
        start = time.process_time()
        code, out, err = run(capsys, "norms", f"@{poly}", "--direction", "dir:[1, 2]")
        assert code == 2 and out == "" and "digit limit" in err
        assert time.process_time() - start < 0.5


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

    def test_improved_preset_weighs_by_d_minus_ell_and_ell(self, tmp_path, capsys):
        terms = [{"k": [1, 2, 0], "re": "1", "im": "0"},
                 {"k": [0, 1, -3], "re": "2", "im": "1/2"}]
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"dim": 3, "terms": terms}))
        dirs = ["dir:[1, quad:sqrt2, 0]", "dir:[0, 1, const:e]"]
        doc = run_json(capsys, "ratio", f"@{poly}", "--direction", dirs[0],
                       "--direction", dirs[1], "--preset", "improved")
        res = doc["result"]
        assert res["exponents"] == ["1", "2"] and res["directions"] == dirs
        want = multi_directional_functional(TrigPoly.from_json(poly.read_text()),
                                            [parse_direction(d) for d in dirs], 1, 2)
        assert res["ratio"] == want.to_json(80)

    @pytest.mark.parametrize("preset", ["thm1", "delta:2"])
    def test_one_direction_presets_refuse_two(self, capsys, preset):
        # the value would be the first direction's ratio alone
        code, out, err = run(capsys, "ratio", "fib:5", "--direction", "dir:[1, quad:sqrt2]",
                             "--direction", "dir:[1, const:e]", "--preset", preset)
        assert code == 2 and out == ""
        assert err == f"error: preset {preset} takes one --direction, got 2\n"

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

    def test_order_1000_weight_answers_promptly(self, capsys):
        # |k|^(999/1000) roots at order 1000; Newton from a power of two
        # above the root took some 17 s here, from the float root under 1 s
        start = time.perf_counter()
        doc = run_json(capsys, "lattice", "--direction", "dir:[1, quad:sqrt2]",
                       "--radius", "5", "--sigma", "999/1000")
        assert time.perf_counter() - start < 2
        res = doc["result"]
        assert res["argmin"] == [1, -1] and res["weight_exponent"] == "999/1000"
        mpmath.mp.dps = 100
        want = (mpmath.sqrt(2) - 1) * mpmath.mpf(2) ** (mpmath.mpf(999) / 2000)
        assert abs(mpmath.mpf(res["minimum"]["value"]) - want) < mpmath.mpf(10) ** -79

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

    @pytest.mark.parametrize("form, entry", [
        (["--direction", "dir:[1, rat:1e400]"], "rat:1e400"),
        (["--system", "dir:[rat:1e400]"], "rat:1e400"),
        (["--direction", "dir:[1, dec:1e400]"], "dec:1e400"),
    ])
    def test_entry_outside_the_float_range_is_input_error(self, capsys, form, entry):
        # the lattice searches' float prefilter cannot hold 10^400
        code, out, err = run(capsys, "lattice", *form, "--radius", "5")
        assert code == 2 and out == ""
        assert err.startswith(f"error: entry {entry} of ") and "float range" in err

    def test_missing_direction_is_input_error(self, capsys):
        code, out, err = run(capsys, "lattice", "--radius", "10")
        assert code == 2 and out == ""
        assert err == "error: lattice needs --direction or --system\n"

    def test_direction_and_system_together_are_refused(self, capsys):
        # otherwise one of the two would be dropped without a word
        code, out, err = run(capsys, "lattice", "--direction", "dir:[1, quad:sqrt2]",
                             "--system", "dir:[quad:sqrt2]", "--radius", "10")
        assert code == 2 and out == ""
        assert err == "error: lattice takes --direction or --system, not both\n"


class TestCf:
    def test_rational(self, capsys):
        doc = run_json(capsys, "cf", "rat:355/113", "--depth", "10")
        assert doc["result"]["quotients"] == [3, 7, 16]
        assert doc["result"]["finite"] is True

    def test_more_than_one_entry_is_refused(self, capsys):
        # otherwise every entry after the first would be dropped without a word
        code, out, err = run(capsys, "cf", "dir:[2, quad:sqrt2]")
        assert code == 2 and out == ""
        assert err == "error: cf takes one number, got 2 entries\n"

    def test_bound_report(self, capsys):
        doc = run_json(capsys, "cf", "const:e", "--depth", "25", "--bound", "10")
        rep = doc["result"]["bound_report"]
        assert rep["exceeded"] is True and rep["max_quotient"] >= 10

    def test_uncertified_depth_is_exit_4(self, capsys):
        code, out, err = run(capsys, "cf", "dec:2.718", "--depth", "25")
        assert code == 4 and "unresolved" in err
        # the partial expansion is still emitted before the exit code
        assert json.loads(out)["result"]["certified_depth"] < 25


    @pytest.mark.parametrize("base, depth", [(3, 40), (2, 60), (10, 60)])
    def test_liouville_certifies_full_depth(self, capsys, base, depth):
        doc = run_json(capsys, "cf", f"liouville:{base}", "--depth", str(depth))
        assert doc["result"]["certified_depth"] == depth
        assert len(doc["result"]["convergents"]) == depth


def _stub_report(seed, ctx):
    rows = [{"criterion": 1, "name": "first", "pass": True},
            {"criterion": 12, "name": "twelfth", "pass": seed != 7}]
    return {"seed": seed, "rows": rows, "all_pass": all(r["pass"] for r in rows)}


class TestReport:
    def test_each_row_prints_its_status(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_report", _stub_report)
        code, out, err = run(capsys, "report")
        assert code == 0 and json.loads(out)["result"] == _stub_report(1234, None)
        assert err == (f"criterion  1 {'first':<28} PASS\n"
                       f"criterion 12 {'twelfth':<28} PASS\n")

    def test_a_failed_row_is_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_report", _stub_report)
        code, out, err = run(capsys, "report", "--seed", "7")
        assert code == 4 and json.loads(out)["result"]["all_pass"] is False
        assert err.splitlines()[1:] == [f"criterion 12 {'twelfth':<28} FAIL",
                                        "unresolved: one or more report rows failed"]

    def test_out_writes_the_canonical_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_report", _stub_report)
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", "--out", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_bytes())
        assert target.read_bytes() == report_to_bytes(doc)
        assert doc["result"] == _stub_report(1234, None)


class TestEmit:
    def test_integers_past_the_str_digit_limit_print_whole(self, capsys):
        settings = {"digits": 80, "max_digits": 100_000, "radius": 100, "grid": 4096,
                    "seed": 1234, "format": "json", "out": None}
        def limit():  # None on interpreters without the limit
            return getattr(sys, "get_int_max_str_digits", lambda: None)()

        before = limit()
        _emit({"q": 10 ** 5000}, settings)
        assert limit() == before  # input parsing keeps its limit
        out = capsys.readouterr().out
        assert '"q": 1' + "0" * 5000 + "\n" in out


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

    @pytest.mark.parametrize("t", ["1/10", "1"])
    def test_one_point_t_grid_is_input_error(self, capfd, t):
        # a line through one point: a RankWarning and a meaningless slope, or
        # at t = 1 (log t = 0) a LAPACK error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["diffusion", "uniform:0:1/2", "--p", "2", "--t-grid", t])
        out, err = capfd.readouterr()
        assert code == 2 and out == "" and not caught
        assert err == "error: a scaling fit needs two or more t values\n"

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

    def test_global_flags_before_subcommand_are_kept(self, tmp_path, capsys):
        cfg = tmp_path / "dirp.cfg"
        cfg.write_text("radius = 7\n")
        flags = ["--digits", "40", "--max-digits", "5000", "--seed", "7",
                 "--config", str(cfg)]
        before = run_json(capsys, *flags, "cf", "rat:22/7")
        after = run_json(capsys, "cf", "rat:22/7", *flags)
        assert before["config"] == after["config"] == {
            "digits": 40, "max_digits": 5000, "radius": 7, "grid": 4096,
            "seed": 7, "format": "json"}
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        for argv in (["--out", str(before), "cf", "rat:22/7"],
                     ["cf", "rat:22/7", "--out", str(after)]):
            code, printed, err = run(capsys, *argv)
            assert code == 0 and printed == "", err
        assert before.read_text() == after.read_text()

    def test_flag_after_subcommand_wins(self, capsys):
        doc = run_json(capsys, "--digits", "40", "cf", "rat:22/7", "--digits", "50")
        assert doc["config"]["digits"] == 50

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("digits 40\n")
        code, _, _ = run(capsys, "cf", "rat:22/7", "--config", str(cfg))
        assert code == 2

    def test_unknown_config_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("digit = 12\nseeds = 5\n")
        code, out, err = run(capsys, "cf", "rat:22/7", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "typo.cfg:1: unknown key 'digit'" in err

    def test_unknown_config_format_is_input_error(self, tmp_path, capsys):
        # checked like --format, so nothing is written or echoed
        out = tmp_path / "out.json"
        cfg = tmp_path / "xml.cfg"
        cfg.write_text("format = xml\n")
        for extra in ((), ("--out", str(out))):
            code, printed, err = run(capsys, "cf", "rat:22/7", "--config", str(cfg), *extra)
            assert code == 2 and printed == "" and "unknown format 'xml'" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_every_config_key_is_read(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        cfg = tmp_path / "dirp.cfg"
        cfg.write_text("digits = 40\nmax_digits = 5000\nradius = 7\ngrid = 512\n"
                       f"seed = 3\nformat = json\nout = {out}\n")
        code, printed, err = run(capsys, "cf", "rat:22/7", "--config", str(cfg))
        assert code == 0 and printed == "", err
        assert json.loads(out.read_text())["config"] == {
            "digits": 40, "max_digits": 5000, "radius": 7, "grid": 512,
            "seed": 3, "format": "json"}


class TestInProcessCalls:
    def test_nothing_carries_over_between_calls(self, tmp_path, capsys):
        # the parser is built once per process, so a second main() call must
        # not see the first call's appended --direction, --digits or --preset
        poly = tmp_path / "poly3.json"
        poly.write_text(json.dumps({"dim": 3, "terms": [
            {"k": [1, 2, -3], "re": "1", "im": "0"},
            {"k": [0, -1, 4], "re": "1/2", "im": "3/4"}]}))
        first = ["ratio", f"@{poly}", "--direction", "dir:[1, quad:sqrt2, rat:1/3]",
                 "--direction", "dir:[rat:2/5, 1, quad:sqrt3]", "--preset", "thm2",
                 "--digits", "40"]
        second = ["ratio", f"@{poly}", "--direction", "dir:[1, rat:1/2, rat:1/7]"]
        before = run_json(capsys, *second)
        doc = run_json(capsys, *first)
        assert len(doc["result"]["directions"]) == 2
        assert doc["config"]["digits"] == 40 and doc["result"]["preset"] == "thm2"
        after = run_json(capsys, *second)
        assert after == before
        assert after["result"]["directions"] == ["dir:[1, rat:1/2, rat:1/7]"]
        assert after["config"]["digits"] == 80 and after["result"]["preset"] == "thm1"


# every site that reads a number from the command line, with {x} for the
# number and the exit code it gives when x = 1e4300 is read
_NUMBER_SITES = {
    "bare entry": (("norms", "fib:3", "--direction", "dir:[1, {x}]"), 0),
    "rat:": (("norms", "fib:3", "--direction", "dir:[1, rat:{x}]"), 0),
    "dec:": (("norms", "fib:3", "--direction", "dir:[1, dec:{x}]"), 0),
    # 1e4300 is read, then overflows float arithmetic
    "--sigma": (("lattice", "--direction", "dir:[1, quad:sqrt2]", "--radius", "3",
                 "--sigma", "{x}"), 2),
    "delta:": (("ratio", "fib:5", "--direction", "dir:[1, quad:(1+sqrt5)/2]",
                "--preset", "delta:{x}"), 2),
    # 1e4300 is read, then falls outside (0, 1]
    "--t-grid": (("diffusion", "uniform:0:1", "--t-grid", "0.1,{x}"), 2),
    # a uniform law 1e4300 wide is nearly flat: the fit is indeterminate
    "uniform:": (("diffusion", "uniform:0:{x}"), 4),
    "atoms:": (("diffusion", "atoms:[(0,1/2),({x},1/2)]"), 0),
}


class TestNumberText:
    @pytest.mark.parametrize("site", list(_NUMBER_SITES))
    def test_every_number_site_bounds_the_exponent(self, capsys, site):
        argv, code_at_limit = _NUMBER_SITES[site]
        # Fraction forms 10**|exponent|: seconds or a stall at this text
        start = time.process_time()
        code, out, err = run(capsys, *(a.format(x="1e10000000") for a in argv))
        assert time.process_time() - start < 0.25
        assert code == 2 and out == "" and "digit limit" in err
        code, _, err = run(capsys, *(a.format(x="1e4300") for a in argv))
        assert code == code_at_limit and "exponent magnitude" not in err

    @pytest.mark.parametrize("argv", [
        ("lattice", "--direction", "dir:[1,quad:sqrt2]", "--radius", "3", "--sigma", "1e309"),
        ("ratio", "fib:5", "--direction", "dir:[1,quad:(1+sqrt5)/2]", "--preset", "delta:1e400"),
        ("lattice", "--direction", "dir:[1,quad:sqrt2]", "--radius", "3", "--sigma", "1e-400"),
    ])
    def test_overflow_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
