"""CLI surface: golden outputs, exit codes, config file, output directory."""

import ast
import hashlib
import json
import os
import runpy
import subprocess
import sys

import pytest

from ofbic import ChannelParams, cli, format_trace, parse_trace, rates, run_scheme
from ofbic.cli import main
from ofbic.sweep import SweepReport, SweepSpec

RATES_DEGENERATE = """\
params: m=0 n=0 mbar=0 nbar=0 f=5
regime: degenerate
outer_bound: 0
inner_bound: 0
matches: yes
open_regime: no
gap: 0
term 2f = 10
term 2max(n-m,m)+2max(nbar,mbar) = 0
term 2n+2nbar = 0
term 2n-m = 0
term f+max(n-m,m)+(nbar-f)+ = 5
term m = 0
term max(n,m)+(n-m)+ = 0
term n+f+(nbar-f)+ = 5
aux f_star = 0
aux f_prime = 0
aux delta0 = 0
reference dfb = 0 (reference envelope)
reference nofb = 0 (reference envelope)
"""

RATES_OPEN_FLAG = """\
params: m=2 n=4 mbar=0 nbar=2 f=9
regime: weak
outer_bound: 6
inner_bound: 6
matches: yes
open_regime: yes
gap: 0
term 2f = 18
term 2max(n-m,m)+2max(nbar,mbar) = 8
term 2max(n-m,m)+2mbar = 4
term 2n+2nbar = 12
term 2n-m = 6
term R_fbxw = 4
term R_rsw = 6
term f+max(n-m,m)+(nbar-f)+ = 11
term m = 2
term max(n,m)+(n-m)+ = 6
term n+f+(nbar-f)+ = 13
aux f_star = 2
aux f_prime = 2
aux delta0 = 2
reference dfb = 6 (reference envelope)
reference nofb = 4 (reference envelope)
"""

FREQ_STRONG = """\
params: m=4 n=1 f=10 theta=1
cross-listening  (mbar=theta, nbar=0): inner 2 outer 2 [strong]
direct-listening (mbar=0, nbar=theta): inner 4 outer 4 [strong]
verdict: direct
"""

COMPARE_SMALL_F = """\
alpha,m,n,mbar,nbar,f,ofb_inner,ofb_outer,dfb,nofb,ofb_eq_dfb,all_equal_2f
0,0,4,1,1,1,2,2,2,2,1,1
1/2,2,4,1,1,1,2,2,2,2,1,1
1,4,4,1,1,1,2,2,2,2,1,1
2,8,4,1,1,1,2,2,2,2,1,1
"""

SIMULATE_RSW = """\
scheme: rsw
params: m=2 n=4 mbar=0 nbar=1 f=3
packets: 8  seed: 1009  slots: 19
formula_rate: 5
measured_sum_rate: 80/19
steady_state_rate: 5
verify: PASS: 80 bits delivered, zero errors
trace: {path}
result: pass
"""

SWEEP_TINY = """\
sweep results
  grid: m 0..3 n 0..3 mbar 0..1 nbar 0..1 f 0..3
  INNER_LE_OUTER           256 points  0 counterexamples  pass
  COROLLARY1               236 points  0 counterexamples  pass
  THEOREM3                 128 points  0 counterexamples  pass
  APPENDIX_IDENTITIES      176 points  0 counterexamples  pass
  open-regime gap histogram (gap:count): 0:20
  total counterexamples: 0
"""


def _never_called(*args, **kwargs):
    raise AssertionError("ran although --out cannot be written")


def _break_fbxw_rate(monkeypatch):
    """Add 1 to the scheme table's fbxw rate, so inner > outer where it is best."""
    spec = rates.SCHEMES["fbxw"]
    monkeypatch.setitem(rates.SCHEMES, "fbxw",
                        spec._replace(rate=lambda p: spec.rate(p) + 1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRates:
    def test_weak_matched_point(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--m", "2", "--n", "4",
                               "--mbar", "1", "--nbar", "1", "--f", "3")
        assert code == 0
        assert "inner_bound: 6" in out and "outer_bound: 6" in out
        assert "matches: yes" in out

    def test_degenerate_golden(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--m", "0", "--n", "0",
                               "--f", "5")
        assert code == 0 and out == RATES_DEGENERATE

    def test_open_flag_golden(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--m", "2", "--n", "4",
                               "--mbar", "0", "--nbar", "2", "--f", "9")
        assert code == 0 and out == RATES_OPEN_FLAG

    def test_open_gap_with_cross_link(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--m", "3", "--n", "6",
                               "--mbar", "1", "--nbar", "2", "--f", "5")
        assert code == 0
        assert "open_regime: yes" in out and "gap: 1" in out

    def test_broken_invariant_exit_4(self, capsys, monkeypatch):
        _break_fbxw_rate(monkeypatch)
        code, out, err = run_cli(capsys, "rates", "--m", "2", "--n", "4",
                                 "--mbar", "1", "--nbar", "1", "--f", "3")
        assert code == 4 and out == ""
        assert err == ("error: internal invariant failed: "
                       "inner > outer at m=2 n=4 mbar=1 nbar=1 f=3\n")

    def test_byte_identical_reruns(self, capsys):
        args = ("rates", "--m", "3", "--n", "5", "--mbar", "2", "--nbar", "1",
                "--f", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSimulate:
    def test_pass_run(self, capsys, tmp_path):
        out_file = tmp_path / "trace.txt"
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "fbxw", "--m", "2", "--n", "4",
            "--mbar", "1", "--nbar", "1", "--f", "3", "--packets", "100",
            "--out", str(out_file),
        )
        assert code == 0
        assert "steady_state_rate: 6" in out
        assert "result: pass" in out
        text = out_file.read_text()
        assert text.startswith("# ofbic-trace v1")
        assert "scheme=fbxw" in text

    def test_byte_exact_summary(self, capsys, tmp_path):
        out_file = tmp_path / "g.txt"
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "rsw", "--m", "2", "--n", "4",
            "--nbar", "1", "--f", "3", "--packets", "8", "--out", str(out_file),
        )
        assert code == 0
        assert out == SIMULATE_RSW.format(path=out_file)

    def test_strong_example(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "rss", "--m", "4", "--n", "1",
            "--mbar", "1", "--nbar", "3", "--f", "2", "--packets", "100",
            "--out", str(tmp_path / "t.txt"),
        )
        assert code == 0 and "steady_state_rate: 4" in out

    def test_regime_error_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--scheme", "rss", "--m", "2", "--n", "4",
            "--f", "3", "--out", str(tmp_path / "t.txt"),
        )
        assert code == 3
        assert "strong" in err
        assert not (tmp_path / "t.txt").exists()

    def test_negative_seed_is_domain_error_exit_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--scheme", "fbxw", "--m", "2", "--n", "4",
            "--mbar", "1", "--nbar", "1", "--f", "3", "--packets", "8",
            "--seed", "-5", "--out", str(tmp_path / "t.txt"),
        )
        assert (code, out, err) == (3, "", "error: seed -5 is negative\n")
        assert not (tmp_path / "t.txt").exists()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--scheme", "nope", "--m", "2", "--n", "4"])
        assert info.value.code == 2

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OFBIC_OUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "nofb-mid", "--m", "3", "--n", "3",
            "--f", "5", "--packets", "8", "--out", "rel.txt",
        )
        assert code == 0
        assert (tmp_path / "rel.txt").exists()

    def test_out_in_missing_directory_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--scheme", "fbxw", "--m", "2", "--n", "4",
            "--mbar", "1", "--nbar", "1", "--f", "3", "--packets", "8",
            "--out", str(tmp_path / "missing" / "t.txt"),
        )
        assert code == 2
        assert err.startswith("error: ") and "missing" in err

    def test_out_in_missing_directory_is_checked_before_the_run(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_scheme", _never_called)
        code, _, err = run_cli(
            capsys, "simulate", "--scheme", "fbxw", "--m", "2", "--n", "4",
            "--out", str(tmp_path / "missing" / "t.txt"),
        )
        assert code == 2 and err.startswith("error: ")


class TestSweep:
    def test_small_clean_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-max", "3", "--n-max", "3", "--mbar-max", "1",
            "--nbar-max", "1", "--f-max", "3", "--sample", "5",
        )
        assert code == 0
        assert "total counterexamples: 0" in out

    def test_formula_only_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-max", "2", "--n-max", "2", "--mbar-max", "1",
            "--nbar-max", "1", "--f-max", "2", "--checks", "corollary1,theorem3",
        )
        assert code == 0
        assert "COROLLARY1" in out and "SCHEME_VS_FORMULA" not in out

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# tiny grid\nm_max = 2\nn_max = 2\nmbar_max = 1\n"
            "nbar_max = 1\nf_max = 2\nchecks = inner_le_outer\n"
        )
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(config), "--n-max", "1",
        )
        assert code == 0
        assert "grid: m 0..2 n 0..1" in out

    def test_byte_exact_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--grid", "m=0:3,n=0:3,mbar=0:1,nbar=0:1,f=0:3",
            "--checks", "inner_le_outer,corollary1,theorem3,appendix_identities",
        )
        assert code == 0 and out == SWEEP_TINY

    def test_default_report_is_pinned(self, capsys):
        """The default sweep (18,225 formula points, 800 runs of 8
        packets) writes the pinned report."""
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5a15469d6b86192af33de0a52cb0a4180d87d761778e5a877e34cfc88f1e449d")

    def test_compact_grid_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--grid", "m=0:2,n=0:2,f=0:2", "--mbar-max", "1",
            "--nbar-max", "1", "--checks", "corollary1",
        )
        assert code == 0
        assert "grid: m 0..2 n 0..2 mbar 0..1 nbar 0..1 f 0..2" in out

    def test_bad_grid_is_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--grid", "m=0:x"])
        assert info.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_unknown_grid_key_is_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--grid", "zz=1:2"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--grid" in err and "'zz'" in err

    def test_repeated_grid_key_is_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--grid", "m=0:1,m=0:3", "--checks", "inner_le_outer"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--grid" in err and "'m'" in err and "twice" in err

    @pytest.mark.parametrize("flag", ["--m-min", "--m-max"])
    def test_grid_and_range_flag_for_one_key_exit_2(self, capsys, flag):
        code, _, err = run_cli(capsys, "sweep", "--grid", "m=0:1,n=0:1,f=0:1",
                               flag, "0", "--checks", "inner_le_outer")
        assert code == 2
        assert err == "error: m given by both --grid and --m-min/--m-max\n"

    def test_empty_checks_is_domain_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--checks", "")
        assert code == 3
        assert err == "error: no sweep checks selected\n"

    def test_repeated_check_is_domain_error_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--grid", "m=0:2,n=0:2,mbar=0:0,nbar=0:0,f=0:2",
                                 "--checks", "corollary1,COROLLARY1")
        assert (code, out, err) == (3, "", "error: repeated checks ['COROLLARY1']\n")

    def test_broken_formula_is_a_counterexample_exit_1(self, capsys,
                                                        monkeypatch):
        _break_fbxw_rate(monkeypatch)
        code, out, err = run_cli(
            capsys, "sweep", "--grid", "m=0:2,n=0:3,mbar=0:1,nbar=0:1,f=0:3",
            "--checks", "inner_le_outer,boundary_continuity",
        )
        assert code == 1 and err == ""
        status = {line.split()[0]: line.split()[-1] for line in out.splitlines()
                  if line.strip().endswith(("pass", "FAIL"))}
        assert status == {"INNER_LE_OUTER": "FAIL", "BOUNDARY_CONTINUITY": "FAIL"}
        assert "[INNER_LE_OUTER] m=0 n=1 mbar=0 nbar=0 f=0: inner 1 > outer 0" in out

    def test_negative_sample_is_domain_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sample", "-1")
        assert code == 3
        assert err.startswith("error: ") and "sample" in err

    def test_negative_seed_is_domain_error_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--seed", "-1")
        assert (code, out, err) == (3, "", "error: seed must be non-negative, got -1\n")

    def test_bad_config_value_exit_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("sample = abc\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and "sample" in err

    def test_config_not_utf8_exit_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_bytes(b"m_max = 2\n\xff\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {config} is not UTF-8 text: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_malformed_config_line_exit_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("m_max = 2\ngarbage line\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and "line 2" in err

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("m_max = 1\nn_max = 1\nmbar_max = 0\nnbar_max = 0\n"
                          "checks = inner_le_outer\nf_mx = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and "line 6" in err and "'f_mx'" in err

    def test_repeated_config_key_exit_2(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("m_max = 1\nn_max = 1\nmbar_max = 0\nnbar_max = 0\n"
                          "f_max = 1\nchecks = inner_le_outer\nf_max = 3\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and "line 7" in err
        assert "'f_max'" in err and "line 5" in err

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config",
                               str(tmp_path / "absent.cfg"))
        assert code == 2
        assert err.startswith("error: ") and "absent.cfg" in err

    def test_out_in_missing_directory_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--m-max", "1", "--n-max", "1", "--mbar-max", "0",
            "--nbar-max", "0", "--f-max", "1", "--checks", "corollary1",
            "--out", str(tmp_path / "missing" / "ce.csv"),
        )
        assert code == 2
        assert err.startswith("error: ") and "missing" in err

    def test_out_in_missing_directory_is_checked_before_the_sweep(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sweep", _never_called)
        code, _, err = run_cli(
            capsys, "sweep", "--out", str(tmp_path / "missing" / "ce.csv"))
        assert code == 2 and err.startswith("error: ")

    def test_no_flags_builds_the_default_spec(self, capsys, monkeypatch):
        specs = []

        def capture(spec):
            specs.append(spec)
            return SweepReport(spec, {}, [], {})

        monkeypatch.setattr(cli, "sweep", capture)
        assert run_cli(capsys, "sweep")[0] == 0
        assert specs == [SweepSpec()]

    def test_counterexample_csv_header(self, capsys, tmp_path):
        out_file = tmp_path / "ce.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--m-max", "1", "--n-max", "1", "--mbar-max", "0",
            "--nbar-max", "0", "--f-max", "1", "--checks", "corollary1",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("check,m,n,mbar,nbar,f,")


class TestCompareAndFreq:
    def test_compare_small_f_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "4", "--f", "1", "--mbar", "1",
            "--nbar", "1", "--alphas", "0,1/2,1,2",
        )
        assert code == 0 and out == COMPARE_SMALL_F

    def test_bad_alphas_is_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compare", "--n", "4", "--f", "1", "--alphas", "abc"])
        assert info.value.code == 2
        assert "--alphas" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["", ",", " , "])
    def test_empty_alphas_is_usage_error_exit_2(self, capsys, alphas):
        with pytest.raises(SystemExit) as info:
            main(["compare", "--n", "4", "--f", "1", "--alphas", alphas])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--alphas" in captured.err and captured.out == ""

    def test_compare_weak_ofb_dfb_region(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "4", "--f", "12", "--mbar", "2",
            "--nbar", "2",
        )
        assert code == 0
        weak_rows = [line for line in out.splitlines()
                     if line.startswith(("1/4,", "1/2,"))]
        assert weak_rows
        for row in weak_rows:
            cells = row.split(",")
            assert cells[-2] == "1"  # ofb_eq_dfb
            assert int(cells[6]) > int(cells[9])  # inner beats nofb

    def test_freq_choice_golden(self, capsys):
        code, out, _ = run_cli(capsys, "freq-choice", "--theta", "1",
                               "--m", "4", "--n", "1", "--f", "10")
        assert code == 0 and out == FREQ_STRONG

    def test_freq_choice_weak(self, capsys):
        code, out, _ = run_cli(capsys, "freq-choice", "--theta", "1",
                               "--m", "2", "--n", "4", "--f", "10")
        assert code == 0
        assert "verdict: direct" not in out


def test_python_m_ofbic_runs_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ofbic", "freq-choice", "--theta", "1",
                                      "--m", "4", "--n", "1", "--f", "10"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("ofbic", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out == FREQ_STRONG


def test_domain_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "rates", "--m", "-1", "--n", "2")
    assert code == 3 and "non-negative" in err


# ---------------------------------------------------------------------------
# `python -m ofbic` in a process of its own, as a user runs it.

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SMALL_GRID = ["--grid", "m=0:4,n=0:4,mbar=0:2,nbar=0:2,f=0:4", "--sample", "5"]


def _package_trees():
    """(file name, syntax tree) of every module of the package; the three
    layer modules must be among them, so no test passes over a missing one."""
    package = os.path.join(SRC, "ofbic")
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"schedule.py", "trace.py", "pipeline.py"} <= set(modules)
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as source:
            yield name, ast.parse(source.read(), name)


def test_package_holds_no_assert_statement():
    """Every invariant of the package is a raised exception, never an
    assert, so that it still holds under python -O."""
    for name, tree in _package_trees():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{name} asserts at lines {lines}"


def test_layers_import_only_from_below():
    """The run's layers import downwards only, channel <- schedule <- trace
    <- pipeline: no layer module imports a layer above it or the package
    itself (``import ofbic``, or a name ``from . import`` takes from the
    package), whose __init__ imports the pipeline.  No module imports ``*``."""
    trees = dict(_package_trees())
    modules = {name.removesuffix(".py") for name in trees}
    layers = ["channel", "schedule", "trace", "pipeline"]
    above = {f"{layer}.py": {*layers[i + 1:], "ofbic"} for i, layer in enumerate(layers)}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "*" not in [alias.name for alias in node.names], \
                    f"{name} imports * at line {node.lineno}"
                module = node.module or ""
                if node.level == 0 and module.split(".")[0] != "ofbic":
                    continue
                module = module.removeprefix("ofbic").lstrip(".")
                imported = {module} if module else {
                    alias.name if alias.name in modules else "ofbic" for alias in node.names}
            elif isinstance(node, ast.Import):
                imported = {alias.name.removeprefix("ofbic.") for alias in node.names
                            if alias.name.split(".")[0] == "ofbic"}
            else:
                continue
            wrong = imported & above.get(name, set())
            assert not wrong, f"{name} imports from {sorted(wrong)} at line {node.lineno}"


def test_pipeline_serves_the_benchmark_names():
    """bench/run.py reads six names from ofbic.pipeline; each is the very
    object its home module defines."""
    from ofbic import pipeline
    from ofbic import schedule as schedule_mod
    from ofbic import trace as trace_mod
    homes = {"build_schedule": schedule_mod, "generate_payload": trace_mod,
             "run_scheme": pipeline, "verify_trace": pipeline,
             "format_trace": trace_mod, "parse_trace": trace_mod}
    with open(os.path.join(os.path.dirname(SRC), "bench", "run.py"), encoding="utf-8") as source:
        tree = ast.parse(source.read())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "pl"}
    assert read == set(homes)
    for name, home in homes.items():
        assert getattr(pipeline, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


def _python(*argv, cwd):
    """``python *argv`` in ``cwd``, with this checkout's package first on
    the path: the finished process."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd)


@pytest.mark.parametrize("command", [
    ("fbxw", (2, 4, 1, 1, 3), 8),
    ("rsw", (2, 4, 0, 1, 3), 60),            # tiled, superframe 2
    ("fbxw", (16, 32, 8, 8, 24), 300),       # the wide point, tiled
    ("nofb-mid", (3, 4, 0, 0, 8), 300),      # two-observation decodes
    ("rss", (4, 1, 1, 1, 2), 300),           # echo cancel sets
    ("fbxw", (2, 4, 1, 1, 3), 300),
    ("rss", (4, 1, 1, 3, 2), 300),
    ("rsw", (2, 4, 0, 4, 3), 300),
    ["sweep", *SMALL_GRID],
    ["sweep", *SMALL_GRID, "--packets", "16"],   # the sampled runs tiled
], ids=["simulate-fbxw-P8", "simulate-rsw-P60", "simulate-fbxw-wide-P300",
        "simulate-nofb-mid-P300", "simulate-rss-P300", "simulate-fbxw-P300",
        "simulate-rss-3-P300", "simulate-rsw-4-P300", "sweep-small-grid",
        "sweep-small-grid-P16"])
def test_python_m_ofbic_passes(command, tmp_path):
    """A simulation passes its replay and writes the trace of the same run
    in process, whose digest the pinned 300-packet runs hold in
    test_schemes.FROZEN_DIGESTS; a sweep of the CI grid finds no
    counterexample."""
    if isinstance(command, list):
        proc = _python("-m", "ofbic", *command, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "total counterexamples: 0" in proc.stdout, proc.stdout
        return
    scheme, point, packets = command
    flags = [arg for key, value in zip(("m", "n", "mbar", "nbar", "f"), point)
             for arg in (f"--{key}", str(value))]
    proc = _python("-m", "ofbic", "simulate", "--scheme", scheme, *flags,
                   "--packets", str(packets), "--out", "trace.txt", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "result: pass" in proc.stdout.splitlines(), proc.stdout
    written = (tmp_path / "trace.txt").read_text()
    assert written == format_trace(run_scheme(scheme, ChannelParams(*point), packets))


# Runs ``python -m ofbic`` with its arguments and prints its exit code, its
# output and the peak RSS of its children, which is the run's alone.
_PEAK_PROBE = """\
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "ofbic", *sys.argv[1:]],
                      capture_output=True, text=True)
print(json.dumps({"code": proc.returncode, "out": proc.stdout, "err": proc.stderr,
                  "peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


def test_wide_run_of_10000_packets_fits_90_mb_and_writes_the_pinned_trace(tmp_path):
    """ofbic simulate at the wide point with 10,000 packets passes, peaks at
    most 90 MB of RSS and writes the pinned trace, whose parse (five index
    widths) formats back to it."""
    probe = _python("-c", _PEAK_PROBE, "simulate", "--scheme", "fbxw", "--m", "16",
                    "--n", "32", "--mbar", "8", "--nbar", "8", "--f", "24",
                    "--packets", "10000", "--out", "wide10k.txt", cwd=tmp_path)
    assert probe.returncode == 0, probe.stderr
    run = json.loads(probe.stdout)
    assert run["code"] == 0 and "result: pass" in run["out"], run["err"]
    assert run["peak_kb"] / 1024 <= 90, f"the run peaks at {run['peak_kb'] / 1024:.1f} MB"
    data = (tmp_path / "wide10k.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "2a0f04b6bc8d721fa08ed2a03aa2e4225932f94b316bcef64c1f9564b2ba3243")
    text = data.decode()
    assert format_trace(parse_trace(text)) == text
