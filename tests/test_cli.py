"""CLI surface: golden outputs, exit codes, config file, output directory."""

import os

import pytest

from ofbic.cli import main

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


def test_domain_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "rates", "--m", "-1", "--n", "2")
    assert code == 3 and "non-negative" in err
