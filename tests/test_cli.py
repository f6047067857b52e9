"""Command-line interface: dispatch, config handling, exit codes, determinism."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

from lacusum.cli import REQUIRED, SETTINGS, _load_config, _setting, main


def write_ini(path, sections):
    """Write {section: {key: value}} as an INI file and return its path as a string."""
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()))
    return str(path)


def run_cli(argv, stdin_text=None, capsys=None):
    """Invoke the CLI main() capturing stdout/stderr; returns (code, out, err)."""
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(argv)
    finally:
        sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


class TestBreakdownCommand:
    def test_csv_and_summary(self, capsys):
        code, out, err = run_cli(["breakdown", "--alpha-grid", "0:0.1:1"], capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,d_alpha,m_alpha,eps_star"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[3]) == 0.0
        assert "alpha_opt" in err

    @pytest.mark.parametrize("command", ["breakdown", "monitor"])
    def test_seed_rejected_where_nothing_is_drawn(self, capsys, command):
        code, _, err = run_cli([command, "--seed", "3"], stdin_text="", capsys=capsys)
        assert code == 1 and "--seed" in err


class TestTuneCommand:
    def test_small_grid(self, capsys):
        code, out, err = run_cli(
            ["tune", "--epsilon", "0.1", "--alpha-grid", "0:0.1:0.4",
             "--samples", "200000", "--gamma", "5000", "--k", "100", "--m", "10"],
            capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,lambda,info,lambda_info,efficiency"
        assert len(lines) == 6
        assert "alpha_oracle" in err and "d_opt" in err

    @pytest.mark.parametrize("flags", [["--seed", "1"], ["--samples", "100000"],
                                       ["--seed", "0", "--samples", "1000000"]],
                             ids=["seed", "samples", "both-at-default-values"])
    @pytest.mark.parametrize("method_from", ["flag", "config"])
    def test_quadrature_rejects_monte_carlo_flags(self, capsys, tmp_path, flags, method_from):
        # the quadrature method reads neither, so an explicit one is an error
        # even at its default value; [tune] keys stay allowed
        cfg = write_ini(tmp_path / "q.ini", {"tune": {"samples": "200000"}} if
                        method_from == "flag" else {"tune": {"method": "gauss_hermite_mixture"}})
        method = ["--method", "gauss_hermite_mixture"] if method_from == "flag" else []
        argv = ["tune", "--config", cfg, *method, "--alpha-grid", "0:0.5:1"]
        code, out, err = run_cli([*argv, *flags], capsys=capsys)
        assert code == 1 and out == "" and "config error" in err, err
        assert all(f in err for f in flags if f.startswith("--")), err
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 0 and len(out.strip().splitlines()) == 4, err

    def test_monte_carlo_reads_seed_and_samples(self, capsys):
        argv = ["tune", "--alpha-grid", "0:0.5:1", "--samples", "100000"]
        runs = [run_cli([*argv, "--seed", seed], capsys=capsys) for seed in ("1", "2")]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] != runs[1][1]

    def test_numeric_failure_exit_code(self, capsys, tmp_path):
        # point-mass contamination far above every breakdown point: no grid
        # point admits a positive MGF root
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nepsilon = 0.45\noutlier.kind = point_mass\n"
                       "outlier.location = 2.7\n")
        code, out, err = run_cli(
            ["tune", "--config", str(cfg), "--alpha-grid", "0:0.1:0.4",
             "--samples", "200000"], capsys=capsys)
        assert code == 2
        assert "numeric failure" in err

    def test_output_independent_of_blas_threads(self):
        # np.dot over the Monte Carlo sample splits its sum by the BLAS thread
        # count, which once moved a root in its last digit
        import lacusum
        src = str(Path(lacusum.__file__).resolve().parents[1])
        argv = ["tune", "--epsilon", "0.1", "--alpha-grid", "0:0.05:1",
                "--samples", "200000", "--seed", "7"]
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from lacusum.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestTuneConfig:
    """Every [tune] key changes the output; a command-line flag still wins."""

    BASE = {"alpha_grid": "0:0.1:0.2", "samples": "100000", "method": "monte_carlo",
            "gamma": "5000", "k": "100", "m": "10"}

    def run_tune(self, capsys, tmp_path, flags=(), **changes):
        keys = {**self.BASE, **changes}
        cfg = tmp_path / "tune.ini"
        cfg.write_text("[model]\nepsilon = 0.1\n\n[tune]\n" +
                       "".join(f"{k} = {v}\n" for k, v in keys.items()))
        code, out, err = run_cli(["tune", "--config", str(cfg), *flags], capsys=capsys)
        assert code == 0, err
        return out, err

    @pytest.mark.parametrize("key,value", [
        ("alpha_grid", "0:0.1:0.3"), ("samples", "200000"),
        ("method", "gauss_hermite_mixture"), ("gamma", "50"), ("k", "20"), ("m", "2")])
    def test_key_changes_output(self, capsys, tmp_path, key, value):
        assert self.run_tune(capsys, tmp_path, **{key: value}) != \
            self.run_tune(capsys, tmp_path)

    def test_summary_reads_config(self, capsys, tmp_path):
        out, err = self.run_tune(capsys, tmp_path, gamma="50", k="20", m="2")
        assert len(out.strip().splitlines()) == 4  # header + 3 grid points
        assert "(K=20, m=2, gamma=50)" in err

    def test_flag_beats_config(self, capsys, tmp_path):
        flagged = self.run_tune(capsys, tmp_path, ["--gamma", "50", "--k", "20"])
        assert flagged == self.run_tune(capsys, tmp_path, gamma="50", k="20")


class TestAlphaGrid:
    """tune and breakdown evaluate 0, s, 2s, ... up to the grid's last point,
    so a grid of any other shape exits 1 instead of being replaced."""

    @pytest.mark.parametrize("argv", [
        ["tune", "--method", "gauss_hermite_mixture", "--alpha-grid", "0,0.21,0.51"],
        ["tune", "--alpha-grid", "0.5:0.25:1"],
        ["breakdown", "--alpha-grid", "0.3"],
    ], ids=["uneven-list", "nonzero-start", "lone-point"])
    def test_rejected(self, capsys, argv):
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 1 and "alpha grid" in err and out == ""


class TestConfigKeysTakeEffect:
    """Every whitelisted key either changes the output or is rejected with exit 1.

    [simulate] gamma is rejected: no delay-table computation reads a target
    ARL.  [calibrate] rel_tol is rejected: calibration returns the exact root
    on its paths, so the tolerance no longer changes the result.
    """

    MONITOR_STREAM = "x1,x2\n0.4,0.2\n2.0,1.8\n2.2,2.4\n2.1,2.2\n"
    COMMANDS = {
        "calibrate": (["calibrate", "--alpha", "0.21", "--d", "0.3", "--k", "3"],
                      {"model": {"epsilon": "0.1"},
                       "calibrate": {"gamma": "20", "reps": "200"}}),
        "monitor": (["monitor"], {"scheme": {"alpha": "0.21", "b": "2.0", "d": "0.5"}}),
        "simulate": (["simulate"],
                     {"scenario": {"k": "5"}, "simulate": {"m_grid": "2", "reps": "20"},
                      "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}}),
        "casestudy": (["casestudy"], {"casestudy": {"length": "256"}}),
        "breakdown": (["breakdown"], {}),
    }

    def run(self, capsys, tmp_path, command, section=None, key=None, value=None,
            flags=()):
        argv, sections = self.COMMANDS[command]
        sections = {name: dict(keys) for name, keys in sections.items()}
        if section is not None:
            sections.setdefault(section, {})[key] = value
        cfg = write_ini(tmp_path / f"{command}.ini", sections)
        return run_cli([*argv, "--config", cfg, *flags],
                       stdin_text=self.MONITOR_STREAM, capsys=capsys)

    @pytest.mark.parametrize("command,section,key,value,effect", [
        ("calibrate", "calibrate", "rel_tol", "0.3", "rejected"),
        ("monitor", "monitor", "stop_on_alarm", "false", "changes"),
        ("calibrate", "scenario", "m", "10", "rejected"),
        ("calibrate", "scenario", "nu", "1", "rejected"),
        ("casestudy", "casestudy", "mix_pre", "0.9,0.1", "rejected"),
        ("casestudy", "casestudy", "mix_post", "0.9,0.1", "rejected"),
        ("simulate", "simulate", "gamma", "50", "rejected"),
        ("breakdown", "breakdown", "alpha_grid", "0:0.5:1", "changes"),
    ])
    def test_key(self, capsys, tmp_path, command, section, key, value, effect):
        code, out, err = self.run(capsys, tmp_path, command, section, key, value)
        if effect == "rejected":
            assert code == 1 and f"'{key}'" in err
            return
        base = self.run(capsys, tmp_path, command)
        assert code == base[0] == 0, err
        assert (out != base[1]) == (effect == "changes")

    @pytest.mark.parametrize("command,section,key,value,flag", [
        ("monitor", "monitor", "stop_on_alarm", "false", "--stop-on-alarm"),
        ("breakdown", "breakdown", "alpha_grid", "0:0.5:1", "--alpha-grid 0:0.01:2"),
    ])
    def test_flag_beats_config(self, capsys, tmp_path, command, section, key, value, flag):
        flagged = self.run(capsys, tmp_path, command, section, key, value, flag.split())
        assert flagged == self.run(capsys, tmp_path, command)


class TestMalformedInput:
    """A value its key's type cannot parse exits 1 naming the key, before any output."""

    # a command that reads each section, with the keys it needs to get there
    READERS = {
        "model": ("breakdown", {}),
        "scenario": ("simulate", {"scheme": {"b": "3"}}),
        "scheme": ("monitor", {}),
        "tune": ("tune", {}),
        "breakdown": ("breakdown", {}),
        "calibrate": ("calibrate", {"calibrate": {"gamma": "5"}}),
        "simulate": ("simulate", {"scheme": {"b": "3"}}),
        "casestudy": ("casestudy", {"casestudy": {"length": "64"}}),
        "monitor": ("monitor", {}),
    }
    def run(self, capsys, tmp_path, section, changes, flags=()):
        command, context = self.READERS[section]
        sections = {name: dict(keys) for name, keys in context.items()}
        for name, keys in changes.items():
            sections.setdefault(name, {}).update(keys)
        cfg = write_ini(tmp_path / "bad.ini", sections)
        code, out, err = run_cli([command, "--config", cfg, *flags], stdin_text="",
                                 capsys=capsys)
        assert code == 1 and out == "" and "Traceback" not in err, err
        return err

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, keys in SETTINGS.items()
        for key, (ptype, _) in keys.items() if ptype is not click.STRING])
    def test_every_key(self, capsys, tmp_path, section, key):
        # every value is parsed at load, so keys the command never reads with
        # these settings (eps_grid in delay_table mode, the glr keys of an
        # lalpha scheme) fail too
        err = self.run(capsys, tmp_path, section, {section: {key: "x"}})
        assert f"config error: [{section}] {key}: 'x'" in err, err

    @pytest.mark.parametrize("section,key,value,message", [
        ("simulate", "reps", "20.7", "'20.7' is not a valid integer"),
        ("tune", "samples", "1e5", "'1e5' is not a valid integer"),
        ("monitor", "stop_on_alarm", "flase", "'flase' is not a valid boolean"),
        ("monitor", "stop_on_alarm", "", "an empty value is not a valid boolean"),
        ("simulate", "m_grid", "a,2", "'a,2' is not a grid of int values"),
        ("tune", "alpha_grid", "0:x:1", "'0:x:1' is not a grid of float values"),
        ("breakdown", "alpha_grid", "0:x:1", "'0:x:1' is not a grid of float values"),
        ("simulate", "theta_grid", "0:nan:1", "grid must be start:step:stop"),
        ("simulate", "theta_grid", "1,nan", "'1,nan' holds a value that is not finite"),
        # a range with no points once wrote a header-only CSV and exited 0
        ("simulate", "m_grid", "5:1:1", "grid must be start:step:stop with step > 0 and "
         "stop >= start, got '5:1:1'"),
        ("simulate", "eps_grid", "0.2:0.1:0.1", "grid must be start:step:stop with step > 0 "
         "and stop >= start, got '0.2:0.1:0.1'"),
        ("breakdown", "alpha_grid", "1:0.5:0", "grid must be start:step:stop with step > 0 "
         "and stop >= start, got '1:0.5:0'"),
        ("scheme", "b", "nan", "'nan' is not a finite number"),
        ("calibrate", "gamma", "inf", "'inf' is not a finite number"),
        ("calibrate", "reps", "abc", "'abc' is not a valid integer"),
    ])
    def test_named(self, capsys, tmp_path, section, key, value, message):
        err = self.run(capsys, tmp_path, section, {section: {key: value}})
        assert f"config error: [{section}] {key}: {message}" in err, err

    def test_unread_key(self, capsys, tmp_path):
        err = self.run(capsys, tmp_path, "model", {"model": {
            "outlier.kind": "point_mass", "outlier.location": "2", "outlier.sd": "x"}})
        assert "config error: [model] outlier.sd: 'x'" in err, err

    def test_unread_well_formed_key_allowed(self, capsys, tmp_path):
        cfg = write_ini(tmp_path / "ok.ini", {"model": {
            "outlier.kind": "point_mass", "outlier.location": "2", "outlier.sd": "2"}})
        code, out, err = run_cli(["breakdown", "--config", cfg, "--alpha-grid", "0:0.5:1"],
                                 capsys=capsys)
        assert code == 0 and len(out.splitlines()) == 4, err

    @pytest.mark.parametrize("key,value,message", [
        ("counts", "60,20", "pool counts must be three positive integers"),
        ("p", "0", "p=0 must lie in 1..64"),
        ("p", "-5", "p=-5 must lie in 1..64"),
    ])
    def test_case_study_shapes(self, capsys, tmp_path, key, value, message):
        err = self.run(capsys, tmp_path, "casestudy", {"casestudy": {key: value}})
        assert f"config error: {message}" in err, err

    @pytest.mark.parametrize("argv,flag", [
        (["tune", "--alpha-grid", "0:x:1"], "--alpha-grid"),
        # a NaN threshold would let the monitor run and never alarm
        (["monitor", "--alpha", "0.21", "--b", "nan", "--d", "0.5"], "--b"),
        # an empty range once raised IndexError out of main() with a traceback
        (["breakdown", "--alpha-grid", "1:0.5:0"], "--alpha-grid"),
        (["tune", "--alpha-grid", "1:0.5:0"], "--alpha-grid"),
    ], ids=["alpha-grid", "b-nan", "breakdown-empty-grid", "tune-empty-grid"])
    def test_malformed_flag(self, capsys, argv, flag):
        code, out, err = run_cli(argv, stdin_text="x1,x2\n0.4,0.2\n2.0,1.8\n", capsys=capsys)
        assert code == 1 and out == "" and "usage error" in err and flag in err, err

    def test_defaults_parse(self):
        for section, keys in SETTINGS.items():
            for key, (_, default) in keys.items():
                if default not in (None, REQUIRED):
                    assert _setting({}, section, key) is not None


class TestSeedAndThreads:
    @pytest.mark.parametrize("command", ["tune", "calibrate", "simulate", "casestudy"])
    def test_negative_seed(self, capsys, command):
        code, out, err = run_cli([command, "--seed", "-1"], capsys=capsys)
        assert code == 1 and out == "" and "usage error" in err and "--seed" in err, err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command,sections,flags", [
        ("calibrate", {}, ["--gamma", "5", "--k", "2", "--reps", "20", "--alpha", "0.21",
                           "--d", "0.3"]),
        ("simulate", {"scenario": {"k": "3"}, "simulate": {"m_grid": "2", "reps": "20"},
                      "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}}, []),
        ("simulate", {"scenario": {"k": "3"},
                      "simulate": {"mode": "arl_vs_epsilon", "eps_grid": "0.1", "reps": "20",
                                   "cap": "500"},
                      "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}}, []),
        ("casestudy", {"casestudy": {"length": "64", "counts": "20,10,10",
                                     "target_arl": "10", "reps": "20"}}, []),
    ], ids=["calibrate", "simulate-delay", "simulate-arl", "casestudy"])
    def test_threads_below_one(self, capsys, tmp_path, command, sections, flags, threads):
        cfg = write_ini(tmp_path / "t.ini", sections)
        code, out, err = run_cli([command, "--config", cfg, *flags, "--threads", threads],
                                 capsys=capsys)
        assert code == 1 and out == "", err
        assert f"config error: threads must be >= 1, got {threads}" in err, err


class TestUnreadSchemeKeys:
    """A [scheme] key or flag that the chosen scheme never reads exits 1 and is named."""

    @pytest.mark.parametrize("scheme,flags,key", [
        ({"kind": "glr", "alpha": "0.21"}, [], "alpha"),
        ({"kind": "glr", "d": "0.5"}, [], "d"),
        ({"kind": "glr", "fusion": "max"}, [], "fusion"),
        ({"kind": "glr"}, ["--alpha", "0.21"], "alpha"),
        ({"kind": "glr", "variant": "chan1", "window": "20"}, [], "window"),
        ({"fusion": "max", "d": "0.5"}, [], "d"),
        ({"fusion": "sum", "d": "0.5"}, [], "d"),
        ({}, ["--fusion", "max", "--d", "2"], "d"),
        ({"p0": "0.1"}, [], "p0"),
        ({"window": "20"}, [], "window"),
        ({"variant": "chan1"}, [], "variant"),
    ], ids=["glr-alpha", "glr-d", "glr-fusion", "glr-alpha-flag", "chan1-window", "max-d",
            "sum-d", "max-d-flag", "lalpha-p0", "lalpha-window", "lalpha-variant"])
    def test_rejected(self, capsys, tmp_path, scheme, flags, key):
        cfg = tmp_path / "scheme.ini"
        cfg.write_text("[scheme]\nb = 3.0\n" + "".join(f"{k} = {v}\n" for k, v in scheme.items()))
        code, _, err = run_cli(["monitor", "--config", str(cfg), *flags],
                               stdin_text="0.1,0.2\n", capsys=capsys)
        assert code == 1 and f"'{key}'" in err, err

    def test_glr_keys_and_b_flag_are_read(self, capsys, tmp_path):
        cfg = tmp_path / "glr.ini"
        cfg.write_text("[scheme]\nkind = glr\nvariant = xie_siegmund\np0 = 0.2\nwindow = 5\n"
                       "b = 1e9\nname = g\n")
        code, out, err = run_cli(["monitor", "--config", str(cfg), "--b", "0"],
                                 stdin_text="0.1,0.2\n0.3,0.4\n", capsys=capsys)
        assert code == 0, err
        lines = out.strip().splitlines()  # the flag's b = 0 alarms at once
        assert len(lines) == 2 and lines[1].endswith(",1")


class TestMonteCarloFlags:
    @pytest.mark.parametrize("command", ["tune", "breakdown", "monitor"])
    @pytest.mark.parametrize("flag", ["--reps", "--threads"])
    def test_rejected_where_nothing_is_simulated(self, capsys, command, flag):
        code, _, err = run_cli([command, flag, "7"], stdin_text="", capsys=capsys)
        assert code == 1 and flag in err

    @pytest.mark.parametrize("mode", ["delay_table", "arl_vs_epsilon"])
    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_simulate_needs_two_replicates(self, capsys, tmp_path, mode, reps):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[scenario]\nk = 3\n\n[simulate]\nm_grid = 2\neps_grid = 0.1\n"
                       "cap = 500\n\n[scheme]\nalpha = 0.21\nb = 3.0\nd = 0.5\n")
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--mode", mode,
                                "--reps", reps], capsys=capsys)
        assert code == 1 and "config error" in err and "2 replicates" in err, err

    @pytest.mark.parametrize("mode", ["delay_table", "arl_vs_epsilon"])
    def test_simulate_cap_below_one(self, capsys, tmp_path, mode):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[scenario]\nk = 3\n\n[simulate]\nm_grid = 1,2\neps_grid = 0.1\n"
                       "cap = 0\nreps = 20\n\n[scheme]\nalpha = 0.21\nb = 3.0\nd = 0.5\n")
        code, out, err = run_cli(["simulate", "--config", str(cfg), "--mode", mode],
                                 capsys=capsys)
        assert code == 1 and "cap must be >= 1" in err, err
        assert len(out.strip().splitlines()) <= 1  # at most the header


class TestConfigHandling:
    def test_unknown_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nepsilonn = 0.1\n")
        code, out, err = run_cli(["breakdown", "--config", str(cfg)], capsys=capsys)
        assert code == 1
        assert "epsilonn" in err

    def test_unknown_section_rejected(self, capsys, tmp_path):
        # only [scheme] takes a :NAME suffix
        for section in ["modelz", "breakdown:fine"]:
            cfg = tmp_path / "c.ini"
            cfg.write_text(f"[{section}]\nalpha_grid = 0:0.5:1\n")
            code, _, err = run_cli(["breakdown", "--config", str(cfg)], capsys=capsys)
            assert code == 1
            assert section in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["breakdown", "--config", "/nowhere/x.ini"], capsys=capsys)
        assert code == 1

    def test_missing_required_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nepsilon = 0.1\n")
        # calibrate needs gamma from flag or config
        code, _, err = run_cli(["calibrate", "--config", str(cfg), "--k", "2",
                                "--alpha", "0.21"], capsys=capsys)
        assert code == 1
        assert "gamma" in err

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(example)
        cfg = _load_config(str(path))
        assert {"model", "scenario", "simulate"} <= set(cfg)
        for section, keys in cfg.items():
            for key in keys:
                _setting(cfg, section, key)

    def test_readme_python_names_exist(self):
        import lacusum
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        code = "".join(re.findall(r"```python\n(.*?)```", readme, re.S))
        names = set(re.findall(r"\blc\.(\w+)", code))
        assert names, "the README's python blocks name no lc.<name>"
        assert sorted(n for n in names if not hasattr(lacusum, n)) == []

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\ntheta1 = 2.0\n\n[breakdown]\nalpha_grid = 0:0.5:1\n")
        code, out, _ = run_cli(["breakdown", "--config", str(cfg),
                                "--alpha-grid", "0:0.25:0.5"], capsys=capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + 3 grid points
        code, out, _ = run_cli(["breakdown", "--config", str(cfg)], capsys=capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("1.0,")  # the file's grid 0, 0.5, 1
        assert len(out.strip().splitlines()) == 4


class TestMonitorCommand:
    STREAM = "x1,x2\n0.4,0.2\n2.0,1.8\n2.2,2.4\n2.1,2.2\n"

    def test_stops_after_first_alarm(self, capsys):
        code, out, _ = run_cli(["monitor", "--alpha", "0.21", "--b", "2.0",
                                "--d", "0.5"], stdin_text=self.STREAM, capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,global_stat,alarmed"
        assert lines[-1].split(",")[2] == "1"      # alarm on the last emitted row
        assert len(lines) == 4                     # header + 3 steps (stopped early)
        assert all(line.split(",")[2] == "0" for line in lines[1:-1])

    def test_continue_after_alarm(self, capsys):
        code, out, _ = run_cli(["monitor", "--alpha", "0.21", "--b", "2.0",
                                "--d", "0.5", "--no-stop-on-alarm"],
                               stdin_text=self.STREAM, capsys=capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + all 4 rows

    def test_classical_cusum_stat_values(self, capsys):
        stream = "1.0\n1.0\n"
        code, out, _ = run_cli(["monitor", "--alpha", "0", "--b", "99",
                                "--d", "0"], stdin_text=stream, capsys=capsys)
        lines = out.strip().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["0.5", "1"]

    @pytest.mark.parametrize("alpha,cell", [("0.21", "nan"), ("0", "inf"), ("0", "-inf")])
    def test_non_finite_value_exits_1(self, capsys, alpha, cell):
        stream = f"x1,x2\n0.4,0.2\n2.0,{cell}\n5.0,5.0\n"
        code, out, err = run_cli(["monitor", "--alpha", alpha, "--b", "2.0", "--d", "0.5"],
                                 stdin_text=stream, capsys=capsys)
        assert code == 1
        assert "step 2, column 2" in err
        assert len(out.strip().splitlines()) == 2  # header + the one good step


class TestCalibrateCommand:
    def test_small_run(self, capsys):
        code, out, err = run_cli(
            ["calibrate", "--gamma", "30", "--alpha", "0.21", "--d", "0.3",
             "--epsilon", "0.1", "--k", "3", "--reps", "200"], capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("b,arl_mean")
        b = float(lines[1].split(",")[0])
        arl = float(lines[1].split(",")[1])
        assert b > 0 and abs(arl - 30) < 10
        assert "calibrated b" in err

    def test_rel_tol_flag_rejected(self, capsys):
        code, _, err = run_cli(["calibrate", "--gamma", "30", "--rel-tol", "0.1"],
                               capsys=capsys)
        assert code == 1 and "--rel-tol" in err


class TestSimulateCommand:
    def test_delay_table(self, capsys, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(
            "[model]\nepsilon = 0.1\n\n"
            "[scenario]\nk = 20\n\n"
            "[simulate]\nmode = delay_table\nm_grid = 5,20\nreps = 50\n\n"
            "[scheme:a]\nalpha = 0.21\nb = 5.0\nd = 0.5\nname = robust\n\n"
            "[scheme:b]\nalpha = 0\nb = 10.0\nd = 0.5\nname = cusum\n")
        code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["scheme", "parameter", "mean", "se", "reps",
                                       "censored", "delay_bound_ratio"]
        assert len(lines) == 5  # 2 schemes x 2 scenarios
        assert {line.split(",")[0] for line in lines[1:]} == {"robust", "cusum"}

    def test_no_m_at_most_k(self, capsys, tmp_path):
        cfg = write_ini(tmp_path / "sim.ini", {
            "scenario": {"k": "5"}, "simulate": {"m_grid": "10,20", "reps": "20"},
            "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}})
        code, out, err = run_cli(["simulate", "--config", cfg], capsys=capsys)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "config error: [simulate] m_grid: no m is at most [scenario] k = 5" in err, err

    @pytest.mark.parametrize("mode", ["delay_table", "arl_vs_epsilon"])
    def test_k_below_one_named_before_the_grid(self, capsys, tmp_path, mode):
        # the default m grid clipped to k = 0 is empty; the fault is k itself
        cfg = write_ini(tmp_path / "sim.ini", {
            "scenario": {"k": "0"}, "simulate": {"mode": mode, "reps": "20"},
            "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}})
        code, out, err = run_cli(["simulate", "--config", cfg], capsys=capsys)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "config error: K must be >= 1, got 0" in err, err
        assert "m_grid" not in err

    def test_m_above_k_named(self, capsys, tmp_path):
        cfg = write_ini(tmp_path / "sim.ini", {
            "scenario": {"k": "5"}, "simulate": {"m_grid": "3,10", "reps": "20"},
            "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}})
        code, out, err = run_cli(["simulate", "--config", cfg], capsys=capsys)
        assert code == 1 and out == "" and "Traceback" not in err
        assert ("config error: [simulate] m_grid: not every m is at most [scenario] k = 5; "
                "above it: 10") in err, err

    def test_theta_below_theta1_fails_before_any_row(self, capsys, tmp_path):
        cfg = write_ini(tmp_path / "sim.ini", {
            "scenario": {"k": "5"},
            "simulate": {"m_grid": "2", "theta_grid": "0.5,1", "reps": "20"},
            "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5"}})
        code, out, err = run_cli(["simulate", "--config", cfg], capsys=capsys)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "config error: theta_post (0.5) must be >= theta1 (1.0)" in err, err

    def test_default_m_grid_clipped_to_k(self, capsys, tmp_path):
        cfg = write_ini(tmp_path / "sim.ini", {
            "scenario": {"k": "3"}, "simulate": {"reps": "20"},
            "scheme": {"alpha": "0.21", "b": "3.0", "d": "0.5", "name": "r"}})
        code, out, err = run_cli(["simulate", "--config", cfg], capsys=capsys)
        assert code == 0, err
        assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["1.0", "3.0"]

    def test_arl_curve_mode(self, capsys, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(
            "[model]\nepsilon = 0.1\n\n[scenario]\nk = 5\n\n"
            "[simulate]\nmode = arl_vs_epsilon\neps_grid = 0.05,0.2\nreps = 50\n"
            "cap = 2000\n\n"
            "[scheme:a]\nalpha = 0.21\nb = 3.0\nd = 0.5\n")
        code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "log_arl" in lines[0]


class TestCaseStudyCommand:
    def test_small_casestudy(self, capsys, tmp_path):
        cfg = tmp_path / "cs.ini"
        cfg.write_text("[casestudy]\nlength = 256\ncounts = 60,20,20\n"
                       "target_arl = 40\nreps = 40\np = 64\n\n"
                       "[scheme:r]\nalpha = 0.21\nd = 1.5\nname = robust\n")
        code, out, _ = run_cli(["casestudy", "--config", str(cfg)], capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("scheme,b,arl_mean")
        fields = lines[1].split(",")
        assert fields[0] == "robust"
        assert float(fields[4]) >= 1.0  # delay mean

    @pytest.mark.parametrize("cap", ["39", "60"])
    def test_cap(self, capsys, tmp_path, cap):
        cfg = tmp_path / "cs.ini"
        text = ("[casestudy]\nlength = 256\ncounts = 60,20,20\n"
                "target_arl = 40\nreps = 40\np = 64\n\n"
                "[scheme:r]\nalpha = 0.21\nd = 1.5\nname = robust\n")
        cfg.write_text(text)
        base = run_cli(["casestudy", "--config", str(cfg)], capsys=capsys)
        cfg.write_text(text.replace("p = 64", f"p = 64\ncap = {cap}"))
        code, out, err = run_cli(["casestudy", "--config", str(cfg)], capsys=capsys)
        if cap == "39":  # below target_arl: a censored mean can never reach it
            assert code == 1 and "cap 39 is below gamma 40" in err, err
        else:
            assert code == base[0] == 0 and out != base[1], err

    @pytest.mark.parametrize("fault, names", [
        ("nan", "normal.csv: non-finite value nan at row 2, column 3"),
        ("length", "one signal length, got normal 64, fault1 32, fault2 64"),
    ], ids=["nan", "length"])
    def test_bad_pool_dir(self, capsys, tmp_path, fault, names):
        # a non-finite cell once ended in a traceback from the engine, and a
        # fault pool of another signal length ran without complaint
        rng = np.random.default_rng(0)
        normal = rng.normal(0.0, 1.0, (30, 64))
        fault1 = rng.normal(0.5, 1.0, (10, 32 if fault == "length" else 64))
        if fault == "nan":
            normal[1, 2] = np.nan
        for name, signals in (("normal", normal), ("fault1", fault1),
                              ("fault2", rng.normal(2.0, 1.0, (10, 64)))):
            np.savetxt(tmp_path / f"{name}.csv", signals, delimiter=",")
        code, _, err = run_cli(["casestudy", "--pool-dir", str(tmp_path), "--p", "16",
                                "--reps", "20", "--target-arl", "20"], capsys=capsys)
        assert code == 1 and "config error" in err and names in err, err
        assert "Traceback" not in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, _ = run_cli(["breakdown", "--alpha-grid", "0:0.5:1",
                                "--output", str(out_path)], capsys=capsys)
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("alpha,")


class TestHelp:
    @pytest.mark.parametrize("cmd", ["tune", "breakdown", "calibrate", "simulate",
                                     "monitor", "casestudy"])
    def test_help_lists_defaults(self, capsys, cmd):
        code, out, _ = run_cli([cmd, "--help"], capsys=capsys)
        assert code == 0
        assert "--config" in out
        # only the commands that draw random numbers take a seed
        assert ("--seed" in out) == (cmd not in ("breakdown", "monitor"))
