import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab import cli
from convlab import gaussian as g
from convlab import lineworld as lw
from convlab import perrin as pr
from convlab import predsel as ps
from convlab.framework import PROBE_SIZES, OracleContradiction, StreamError

import reference as ref


SMALL_CONFIG = {
    "experiment": ["gaussian", "perrin"],
    "seed": 7,
    "gaussian": {"mc_trials": 5000, "n_grid": [10, 100], "mc_n_grid": [100]},
    "perrin": {"grid_step": 0.25, "coverage_reps": 50, "coverage_size": 100,
               "stream_schedule": [50, 100]},
}


def run_cli(tmp_path, config, *args):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main(["--config", str(cfg), "--out", str(out), *args])
    return code, out


class TestValidateConfig:
    def test_minimal_config_gets_defaults(self):
        config = cli.validate_config('{"experiment": "gaussian", "seed": 1}')
        assert config["experiment"] == ["gaussian"]
        assert config["seed"] == 1
        assert config["perrin"]["grid_step"] == 0.02
        assert config["gaussian"]["mc_trials"] == 200000

    def test_all_expands(self):
        config = cli.validate_config('{"experiment": "all"}')
        assert config["experiment"] == list(cli.SUITES)

    def test_empty_experiment_list(self):
        assert cli.validate_config('{"experiment": []}')["experiment"] == []

    def test_ratio_out_of_range(self):
        with pytest.raises(cli.ConfigError, match="lineworld.ratio"):
            cli.validate_config('{"lineworld": {"ratio": 1.2}}')

    def test_unknown_key_named(self):
        with pytest.raises(cli.ConfigError, match="alpha_levelz"):
            cli.validate_config('{"gaussian": {"alpha_levelz": [0.1]}}')

    def test_parse_error_carries_line(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.validate_config('{\n  "seed": ,\n}')

    @pytest.mark.parametrize("text, message", [
        ('{"seed": 1%s}' % ("0" * 5000), "Exceeds the limit"),
        ('{"seed": %s%s}' % ("[" * 100_000, "]" * 100_000), "nested too deeply"),
    ], ids=["integer-5000-digits", "nested-100000-deep"])
    def test_unparseable_value_exit_two(self, tmp_path, capsys, text, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli.validate_config(text)
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: config parse error: ")
        assert not out.exists()

    def test_type_errors(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.validate_config('{"seed": "abc"}')
        with pytest.raises(cli.ConfigError, match="check"):
            cli.validate_config('{"check": 1}')


HOSTILE = [True, None, "x", [], {}, [1e308], 0, -1, 1e308, -1e308, 1e-308, 10**30, 2**63, 10**6]
# one value at or beyond an edge of the float range, set into an otherwise ordinary
# section by the run-level fuzz tests
_POSITIVE_EDGES = [5e-324, 1e-300, 1e-150, 1e150, 1e300, 1e307, 1e308]
GAUSSIAN_EDGES = [
    *((key, v) for key in ("theta_grid", "mc_theta_grid")
      for v in (1e-150, -1e-151, 1e-160, 5e-324, 1e300, -1.7e308)),
    *((key, v) for key in ("n_grid", "mc_n_grid") for v in (10**15, 10**300, 10**400)),
    *(("alpha_grid", v) for v in (2.220446049250313e-16, 1.1e-16, 1e-300, 0.9999999999999999)),
]
LINEWORLD_EDGES = [
    *((key, v) for key in ("delta0", "uniform_lengths") for v in _POSITIVE_EDGES),
    *(("ratio", v) for v in (1e-300, 1e-10)),
    ("theta_min", -1e300), ("theta_min", 1e307), ("theta_max", 1e300), ("theta_max", 1e308),
    ("theta_step", 1e-300), ("offsets", [1.0, -1.0]), ("offsets", [-1.0, 1.0, -1.0]),
]
PERRIN_EDGES = [
    *((key, v) for key in ("delta0", "way1_eps", "way2_delta0", "way3_delta0")
      for v in _POSITIVE_EDGES),
    *(("ratio", v) for v in (1e-300, 1e-10, 0.9999999999999999)),
    *((key, v) for key in ("way1_p", "way2_p") for v in (5e-324, 1e-300, -1e308, 1e308)),
    ("grid_lo", -1e300), ("grid_lo", 1e307), ("grid_hi", 1e300), ("grid_hi", 1e308),
    ("grid_step", 5e-324), ("grid_step", 1e300), ("horizon", 10**9),
    ("coverage_reps", 10**8), ("coverage_size", 10**7), ("stream_schedule", [2, 10**7]),
]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def schema_leaves(schema, path=()):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from schema_leaves(spec, (*path, key))
        else:
            yield (*path, key)


class TestFuzzSchema:
    def test_hostile_leaf_values_pass_or_raise_config_error(self):
        start = time.perf_counter()
        for leaf in schema_leaves(cli.SCHEMA):
            for value in HOSTILE:
                raw = value
                for key in reversed(leaf):
                    raw = {key: raw}
                try:
                    cli.check_consistency(cli.validate_config(json.dumps(raw)))
                except cli.ConfigError:
                    pass
        assert time.perf_counter() - start < 5.0


class TestSuites:
    def test_table_schema_sections_and_help_agree(self):
        sections = [key for key, spec in cli.SCHEMA.items() if isinstance(spec, dict)]
        assert sorted(cli.SUITES) == sorted(sections)
        assert all(runner.__name__ == f"run_{name}" for name, runner in cli.SUITES.items())
        (action,) = [a for a in cli.build_parser()._actions if a.dest == "experiment"]
        assert action.help.split("|") == [*cli.SUITES, "all"]

    def test_all_checks_print_in_table_order(self, tmp_path, capsys):
        small = {**SMALL_CONFIG, "experiment": "all",
                 "predsel": {"regime_a_reps": 100, "regime_b_reps": 100, "probe_reps": 100}}
        code, _ = run_cli(tmp_path, small, "--check")
        assert code in (0, 1)
        suites = [line.split()[1].split("_")[0]
                  for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
        assert list(dict.fromkeys(suites)) == list(cli.SUITES)
        assert suites == sorted(suites, key=list(cli.SUITES).index)

    @pytest.mark.parametrize("error", [OracleContradiction, StreamError, ps.FitError,
                                       pr.EstimationError], ids=lambda e: e.__name__)
    def test_run_error_exits_three_without_a_traceback(self, tmp_path, capsys, monkeypatch,
                                                       error):
        # a run that stops is told apart from a failed --check (exit 1)
        def raiser(cfg, out):
            raise error("the suite stopped")

        monkeypatch.setitem(cli.SUITES, "lineworld", raiser)
        code, _ = run_cli(tmp_path, {"experiment": "lineworld"}, "--check")
        err = capsys.readouterr().err
        assert code == 3
        assert err == "run error: the suite stopped\n"
        assert "Traceback" not in err

    def test_curve_below_its_certificate_exits_three(self, tmp_path, capsys, monkeypatch):
        # classify_mode judges the curves the run wrote: a doctored one contradicts
        monkeypatch.setattr(g, "curve_analytic",
                            lambda rule, theta, n_grid: tuple((n, 0.5) for n in n_grid))
        code, _ = run_cli(tmp_path, {"experiment": "gaussian", "gaussian": {"mc_trials": 1000}})
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("run error: ")
        assert "despite certificate" in err and "Traceback" not in err


class TestImportFootprint:
    """Config validation imports the suites the config names, so a run pays their
    import cost (numpy for all but lineworld) in set-up and loads no other suite."""

    HEAVY = ("numpy", "convlab.rand", "convlab.gaussian", "convlab.perrin", "convlab.predsel")

    def loaded(self, body: str) -> list:
        """Which HEAVY modules a fresh interpreter holds where body calls seen()."""
        script = textwrap.dedent(f"""\
            import json, sys
            from convlab import cli
            def seen():
                return sorted(m for m in {self.HEAVY!r} if m in sys.modules)
            """) + textwrap.dedent(body)
        done = self.python(script)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @staticmethod
    def python(script: str) -> subprocess.CompletedProcess:
        """script run by a fresh interpreter that imports this package's source."""
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)

    def write_config(self, tmp_path) -> str:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"experiment": "lineworld",
                                   "lineworld": {"theta_step": 0.1, "horizon": 30}}))
        return str(cfg)

    def test_lineworld_check_run_loads_no_numpy(self, tmp_path):
        assert self.loaded(f"""
            code = cli.main(["--config", {self.write_config(tmp_path)!r}, "--check",
                             "--out", {str(tmp_path / "out")!r}])
            print(json.dumps([code, seen()]))
            """) == [0, []]

    def test_validation_loads_the_named_suite(self):
        assert self.loaded("""
            before = seen()
            cli.validate_config('{"experiment": "perrin"}')
            print(json.dumps([before, seen()]))
            """) == [[], ["convlab.perrin", "convlab.rand", "numpy"]]

    def test_experiment_override_loads_its_suite_before_run(self, tmp_path):
        assert self.loaded(f"""
            at_run = []
            cli.run = lambda config, out_dir=None: at_run.append(seen()) or cli.RunOutcome(0, {{}})
            code = cli.main(["--config", {self.write_config(tmp_path)!r}, "--experiment", "perrin"])
            print(json.dumps([code, at_run]))
            """) == [0, [["convlab.perrin", "convlab.rand", "numpy"]]]

    def test_numpy_suite_without_numpy_exit_two(self, tmp_path):
        # an interpreter that cannot import numpy: one config error line naming the
        # suite and the module, no traceback, nothing written
        done = self.python(textwrap.dedent(f"""\
            import sys
            sys.modules["numpy"] = None  # every import of numpy now fails
            from convlab import cli
            sys.exit(cli.main(["--experiment", "perrin", "--out", {str(tmp_path / "out")!r}]))
            """))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("config error: experiment: the perrin suite needs the module "
                               "'numpy', which this interpreter cannot import\n")
        assert not (tmp_path / "out").exists()

    def test_only_a_missing_outside_module_is_a_config_error(self, monkeypatch):
        # an import failing inside the package is a packaging bug, and raises as it is
        for name, config_error in [("numpy", True), ("numpy.linalg", True),
                                   ("convlab.framework", False), (None, False)]:
            def fail(*args):
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)

            monkeypatch.setattr(cli.importlib, "import_module", fail)
            with pytest.raises(ImportError if not config_error else cli.ConfigError) as raised:
                cli.validate_config('{"experiment": "perrin"}')
            assert (type(raised.value) is cli.ConfigError) == config_error
            if config_error:
                assert str(raised.value) == (f"experiment: the perrin suite needs the module "
                                             f"{name!r}, which this interpreter cannot import")

    @pytest.mark.parametrize("config", [None, {"experiment": "all"}], ids=["no-config", "all"])
    def test_lineworld_override_loads_no_other_suite(self, tmp_path, config):
        # the override replaces the list before any suite is imported, whether the
        # `all` it replaces is the default or the config file's
        flags = ["--experiment", "lineworld", "--check", "--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            flags += ["--config", str(tmp_path / "config.json")]
        assert self.loaded(f"""
            code = cli.main({flags!r})
            print(json.dumps([code, seen()]))
            """) == [0, []]


class TestFlagTable:
    """cli.FLAGS drives every flag: each sets one SCHEMA field, checked by that field's
    own checker under the flag's name, before the contradictions and the imports."""

    BASE = {"experiment": "lineworld", "lineworld": {"theta_step": 0.1, "horizon": 30},
            "gaussian": {"mc_trials": 1000, "mc_n_grid": [10]}}
    # a value the field's checker rejects (argparse's own type and choices aside)
    BAD = {"seed": 0.5, "experiment": "x", "grid_step": 0.0, "horizon": 0, "trials": 10}
    # a valid argv value, and the value the manifest echoes for it
    GOOD = {"seed": ("3", 3), "experiment": ("gaussian", ["gaussian"]), "check": (None, True),
            "grid_step": ("0.25", 0.25), "horizon": ("20", 20), "trials": ("2000", 2000)}

    @staticmethod
    def option(flag):
        return "--" + flag.replace("_", "-")

    @pytest.mark.parametrize("flag", list(cli.FLAGS))
    def test_flag_sets_a_schema_leaf(self, flag):
        assert cli.FLAGS[flag] in set(schema_leaves(cli.SCHEMA))
        assert flag in {a.dest for a in cli.build_parser()._actions}

    @pytest.mark.parametrize("flag", sorted(set(cli.FLAGS) - {"check"}))
    def test_out_of_range_flag_exit_two(self, tmp_path, capsys, flag):
        # --check takes no value
        with pytest.raises(cli.ConfigError, match=f"^{self.option(flag)}: "):
            cli.validate_config("{}", {flag: self.BAD[flag]})
        if flag == "seed":  # argparse hands the checker an int, which every seed is
            return
        code, out = run_cli(tmp_path, self.BASE, self.option(flag), str(self.BAD[flag]))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {self.option(flag)}: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", list(cli.FLAGS))
    def test_flag_value_reaches_the_manifest(self, tmp_path, flag):
        value, echoed = self.GOOD[flag]
        code, out = run_cli(tmp_path, self.BASE, self.option(flag),
                            *([] if value is None else [value]))
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        for key in cli.FLAGS[flag]:
            config = config[key]
        assert config == echoed

    def test_config_check_holds_without_the_flag(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, {**self.BASE, "check": True})
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["check"] is True
        assert "lineworld_razor_probe" in json.loads((out / "summary.json").read_text())["checks"]
        assert "check lineworld_razor_probe: PASS" in capsys.readouterr().out

    def test_validation_alone_rejects_a_contradiction(self):
        # what bench/worker.py calls before cli.run: the config never reaches a run
        with pytest.raises(cli.ConfigError, match=r"^perrin\.ratio: .* above the limit"):
            cli.validate_config(json.dumps({"experiment": "perrin", "perrin": {"ratio": 0.9999}}))


class TestRun:
    def test_artifacts_and_schemas(self, tmp_path):
        code, out = run_cli(tmp_path, SMALL_CONFIG)
        assert code == 0
        with open(out / "curves.csv", newline="") as f:
            header = next(csv.reader(f))
        assert header == ["rule", "theta", "n", "truth_prob", "se"]
        with open(out / "domain_ockham_realist.csv", newline="") as f:
            header = next(csv.reader(f))
        assert header == ["component", "a", "b", "status", "settle_stage"]
        scoresheet = json.loads((out / "scoresheet.json").read_text())
        assert scoresheet["OCKHAM_REALIST"]["ae"]["pass"]
        assert not scoresheet["WAY2"]["stable"]["pass"]
        assert scoresheet["WAY2"]["stable"]["witnesses"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert "summary.json" in manifest["outputs"]

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path, SMALL_CONFIG)
        cfg = tmp_path / "config.json"
        out2 = tmp_path / "out2"
        assert cli.main(["--config", str(cfg), "--out", str(out2)]) == 0
        d1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
        d2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
        assert d1 == d2

    def test_empty_experiments_no_files(self, tmp_path):
        code, out = run_cli(tmp_path, {"experiment": []})
        assert code == 0
        assert not out.exists()

    def test_default_lineworld_labels(self, tmp_path):
        # one stream per default offset, each as the spec that ran
        code, out = run_cli(tmp_path, {"experiment": "lineworld"})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())["lineworld"]
        assert set(summary["pointwise_by_stream"]) == {
            "centered(d0=1.0,r=0.7)", "offcenter(d0=1.0,r=0.7,lam=-1.0)",
            "offcenter(d0=1.0,r=0.7,lam=0.7)"}

    @pytest.mark.parametrize("offsets, labels", [
        ([-1.0], {"offcenter(d0=1.0,r=0.7,lam=-1.0)"}),
        ([0.7, -0.0], {"offcenter(d0=1.0,r=0.7,lam=0.7)", "centered(d0=1.0,r=0.7)"}),
    ], ids=["no-centered", "negative-zero-centered"])
    def test_offsets_list_the_streams(self, tmp_path, offsets, labels):
        # a list without 0.0 runs no centered stream; -0.0 is the centered stream
        code, out = run_cli(tmp_path, {"experiment": "lineworld", "lineworld": {
            "theta_step": 0.1, "offsets": offsets}}, "--check")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["lineworld"]["pointwise_by_stream"]) == labels
        assert summary["checks"]["lineworld_mstar_pointwise_stable"]["detail"] == (
            f"11 worlds x {len(labels)} streams")

    def test_lf_line_endings(self, tmp_path):
        _, out = run_cli(tmp_path, SMALL_CONFIG)
        raw = (out / "curves.csv").read_bytes()
        assert b"\r" not in raw

    def test_check_passes_on_sound_config(self, tmp_path):
        config = {
            "experiment": ["gaussian"],
            "seed": 11,
            "gaussian": {"mc_trials": 50000},
        }
        code, _ = run_cli(tmp_path, config, "--check")
        assert code == 0

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])
    def test_check_passes_when_mc_estimates_one(self, tmp_path, seed):
        # at n = 10**6 all 1,000 trials answer SIMPLE: an estimate of 1.0 beside
        # BIC's analytic 0.99980, which a plug-in se of 0 rejected
        config = {"experiment": "gaussian", "seed": seed, "gaussian": {
            "mc_trials": 1000, "n_grid": [10, 20, 50, 100, 200, 500, 1000, 10000, 1000000],
            "mc_n_grid": [10, 100, 1000000]}}
        code, out = run_cli(tmp_path, config, "--check")
        assert code == 0
        assert "1000000,1.0," in (out / "curves.csv").read_text()

    def test_manifest_lists_only_this_runs_files(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["--experiment", "gaussian", "--trials", "2000", "--out", str(out)]) == 0
        first = json.loads((out / "manifest.json").read_text())["outputs"]
        assert set(first) == {"curves.csv", "summary.json"}
        assert cli.main(["--experiment", "lineworld", "--out", str(out)]) == 0
        second = json.loads((out / "manifest.json").read_text())["outputs"]
        assert (out / "curves.csv").exists()
        assert set(second) == {"summary.json"}
        assert second["summary.json"] == hashlib.sha256(
            (out / "summary.json").read_bytes()).hexdigest()

    def test_run_that_stops_leaves_no_manifest(self, tmp_path, monkeypatch):
        # a manifest attests to a finished run: one that stops after a suite's jobs
        # wrote their files, at a write (exit 2) or in a later suite's job (exit 3),
        # leaves none
        out = tmp_path / "out"
        reps = {"regime_a_reps": 100, "regime_b_reps": 100, "probe_reps": 100}
        finished = {"experiment": "predsel", "seed": 1, "predsel": reps}
        stopping = {"experiment": ["predsel", "perrin"], "seed": 2, "predsel": reps,
                    "perrin": {"grid_step": 0.25, "stream_schedule": [50, 100]}}
        (out / "scoresheet.json").mkdir(parents=True)  # perrin's last write fails: exit 2

        def stopped():
            raise ps.FitError("the suite stopped")

        for code in (2, 3):
            if code == 3:
                monkeypatch.setitem(cli.SUITES, "perrin",
                                    lambda cfg, out: ([("stopped", stopped)], None))
            assert run_cli(tmp_path, finished)[0] == 0
            assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 1
            before = (out / "selection.csv").read_bytes()
            assert run_cli(tmp_path, stopping)[0] == code
            assert (out / "selection.csv").read_bytes() != before  # the seed-2 jobs wrote it
            assert not (out / "manifest.json").exists() and not (out / "summary.json").exists()


class TestFlags:
    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": ["gaussian"],
                                   "gaussian": {"mc_trials": 2000, "mc_n_grid": [10]}}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
        c1 = (out1 / "curves.csv").read_text()
        c2 = (out2 / "curves.csv").read_text()
        assert c1 != c2

    def test_experiment_and_trials_flags(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["--experiment", "gaussian", "--trials", "2000",
                         "--out", str(out)]) == 0
        assert (out / "curves.csv").exists()

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.json")]) == 2

    def test_config_file_not_utf8_exit_two(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        cfg.write_bytes(b'{"seed": "\xff"}')
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg} is not UTF-8 text: ")
        assert not out.exists()

    def test_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"lineworld": {"ratio": 1.2}}')
        assert cli.main(["--config", str(cfg)]) == 2

    def test_bad_flag_value_exit_two(self, tmp_path):
        assert cli.main(["--experiment", "gaussian", "--trials", "10",
                         "--out", str(tmp_path / "x")]) == 2

    def test_format_flag_exit_two(self, tmp_path, capsys):
        # every table is CSV: argparse refuses the flag before any config is read
        with pytest.raises(SystemExit) as raised:
            cli.main(["--experiment", "lineworld", "--format", "json",
                      "--out", str(tmp_path / "x")])
        assert raised.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_lineworld_theta_range_reversed_exit_two(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"experiment": ["lineworld"],
                                     "lineworld": {"theta_min": 0.5, "theta_max": -0.5}})
        assert code == 2
        assert "lineworld.theta_min" in capsys.readouterr().err

    def test_perrin_grid_empty_exit_two(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"experiment": ["perrin"],
                                     "perrin": {"grid_lo": 1.5, "grid_hi": 1.5}})
        assert code == 2
        assert "perrin.grid_lo" in capsys.readouterr().err

    def test_grid_step_not_dividing_span_exit_two(self, tmp_path, capsys):
        code = cli.main(["--experiment", "perrin", "--grid-step", "0.03",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "perrin.grid_step" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("suite, ratio", [("perrin", 0.375), ("lineworld", 0.3)])
    def test_interval_below_float_resolution_exit_two(self, tmp_path, capsys, suite, ratio):
        # delta0 * ratio**(horizon - 1) falls to the float spacing at the
        # largest world parameter, where the last interval is a point
        code, out = run_cli(tmp_path, {"experiment": [suite], suite: {"ratio": ratio}})
        assert code == 2
        err = capsys.readouterr().err
        assert f"{suite}.horizon" in err and "delta0=1.0" in err and f"ratio={ratio}" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, field", [
        ('{"experiment": "perrin", "perrin": {"grid_hi": 1e400}}', "perrin.grid_hi"),
        ('{"experiment": "gaussian", "gaussian": {"theta_grid": [1e400]}}',
         "gaussian.theta_grid[0]"),
        ('{"experiment": "gaussian", "gaussian": {"theta_grid": [0.0, NaN]}}',
         "gaussian.theta_grid[1]"),
        ('{"experiment": "gaussian", "gaussian": {"mc_theta_grid": [1e400]}}',
         "gaussian.mc_theta_grid[0]"),
        ('{"experiment": "gaussian", "gaussian": {"mc_theta_grid": [NaN]}}',
         "gaussian.mc_theta_grid[0]"),
        ('{"lineworld": {"theta_max": 1e400}}', "lineworld.theta_max"),
        ('{"lineworld": {"theta_min": NaN}}', "lineworld.theta_min"),
        ('{"experiment": "perrin", "perrin": {"grid_hi": 1%s}}' % ("0" * 400), "perrin.grid_hi"),
        # finite, but (grid_hi - grid_lo) / grid_step is not
        ('{"experiment": "perrin", "perrin": {"grid_hi": 1e308}}', "perrin.grid_step"),
    ], ids=["grid_hi-1e400", "theta_grid-1e400", "theta_grid-NaN", "mc_theta_grid-1e400",
            "mc_theta_grid-NaN", "theta_max-1e400", "theta_min-NaN",
            "grid_hi-1e400-integer", "grid_span-overflow"])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, text, field):
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not out.exists()

    def test_nan_grid_step_flag_exit_two(self, tmp_path, capsys):
        code = cli.main(["--experiment", "perrin", "--grid-step", "nan",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--grid-step: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("config, field", [
        ({"experiment": "gaussian", "gaussian": {"n_grid": [100, 10]}}, "gaussian.n_grid[1]"),
        ({"experiment": "gaussian", "gaussian": {"mc_n_grid": [10, 10]}},
         "gaussian.mc_n_grid[1]"),
        ({"experiment": "perrin", "perrin": {"stream_schedule": [100, 50]}},
         "perrin.stream_schedule[1]"),
        ({"experiment": "predsel", "predsel": {"regime_a_n": 5}}, "predsel.regime_a_n"),
        ({"experiment": "predsel", "predsel": {"regime_b_n": 13}}, "predsel.regime_b_n"),
        # a regime's (64, max_degree + 2, n) float buffer would take 4 PB (A) or 7 PB (B)
        ({"experiment": "predsel", "predsel": {"regime_a_n": 10**12}}, "predsel.regime_a_n"),
        ({"experiment": "predsel", "predsel": {"regime_b_n": 10**12}}, "predsel.regime_b_n"),
        ({"experiment": "predsel", "check": True, "predsel": {"regime_a_max_degree": 1}},
         "predsel.regime_a_max_degree"),
        ({"experiment": "lineworld", "lineworld": {"theta_step": 0.3}}, "lineworld.theta_step"),
        ({"experiment": "predsel", "predsel": {"regime_a_max_degree": 64}},
         "predsel.regime_a_max_degree"),
        # the probe's smallest design, n = 50, fits at most degree 48
        ({"experiment": "predsel", "predsel": {"regime_a_coeffs": [0.0] * 49 + [1.0],
                                               "regime_a_max_degree": 49}},
         "predsel.regime_a_coeffs"),
        # trailing zeros do not raise the degree: 49 here as well
        ({"experiment": "predsel", "predsel": {"regime_a_coeffs": [0.0] * 49 + [1.0, 0.0, -0.0],
                                               "regime_a_max_degree": 63}},
         "predsel.regime_a_coeffs"),
        ({"experiment": "predsel", "predsel": {"regime_a_sigma": 1e-300}},
         "predsel.regime_a_sigma"),
        ({"experiment": "predsel", "predsel": {"regime_b_sigma": 1e200}}, "predsel.regime_b_sigma"),
        # below 64 eps n max|f*| the fits' rss is float rounding: 2.5e-11 for regime A's
        # default truth (max|f*| <= 3.5) at n = 500, 7.1e-12 for |x|
        ({"experiment": "predsel", "check": True, "predsel": {"regime_a_sigma": 1e-13}},
         "predsel.regime_a_sigma"),
        ({"experiment": "predsel", "predsel": {"regime_b_sigma": 7e-12}}, "predsel.regime_b_sigma"),
        # above max|f*| + 8 sigma = n eps sqrt(max float / 2**17) / 2**40 (1.1e125 at n = 15,
        # 3.7e126 at n = 500) a near-interpolating fit's squared error at the risk nodes can
        # overflow: at the default seed sigma 1.28e143 put an inf risk in selection.csv, with
        # an overflow warning that CI's strict step raises
        ({"experiment": "predsel", "predsel": {"regime_a_coeffs": [0.0], "regime_a_sigma": 1.2755e143,
                                               "regime_a_max_degree": 13, "regime_a_n": 15}},
         "predsel.regime_a_sigma"),
        ({"experiment": "predsel", "predsel": {"regime_b_sigma": 5e125}}, "predsel.regime_b_sigma"),
        ({"experiment": "predsel", "predsel": {"regime_a_coeffs": [0.0, 1e140],
                                               "regime_a_sigma": 1e130}},
         "predsel.regime_a_coeffs"),
        # 1 - alpha/2 rounds to 1.0, which has no normal quantile
        ({"experiment": "gaussian", "gaussian": {"alpha_grid": [1e-16]}}, "gaussian.alpha_grid[0]"),
        # ((z - q) / |theta|)**2 overflows in the certified settle size
        ({"experiment": "gaussian", "gaussian": {"theta_grid": [0.5, -1e-160]}},
         "gaussian.theta_grid[1]"),
        # a fixed-z rule fails PROB_ONE only at theta 0 and an alpha below 1 - its level cap
        # (0.05 for fixed_z(1.96)): grids without such a pair cannot witness it
        ({"experiment": "gaussian", "gaussian": {"theta_grid": [0.5]}}, "gaussian.theta_grid"),
        ({"experiment": "gaussian", "gaussian": {"alpha_grid": [0.16, 0.05]}},
         "gaussian.alpha_grid"),
        # stage-0 endpoints theta -+ 2 * delta0 overflow
        ({"experiment": "lineworld", "lineworld": {"delta0": 1e308}}, "lineworld.delta0"),
        ({"experiment": "perrin", "perrin": {"delta0": 1e308, "grid_step": 0.25,
                                             "coverage_reps": 10}}, "perrin.delta0"),
        # the uniform-refutation history spans 16 lengths; half of 5e-324 is 0
        ({"experiment": "lineworld", "lineworld": {"uniform_lengths": [1e308]}},
         "lineworld.uniform_lengths[0]"),
        ({"experiment": "lineworld", "lineworld": {"uniform_lengths": [1.0, 5e-324]}},
         "lineworld.uniform_lengths[1]"),
        # sqrt(n) of an integer beyond the float range
        ({"experiment": "gaussian", "gaussian": {"n_grid": [10, 10**400]}}, "gaussian.n_grid[1]"),
        # the suite would run once but summary.json would list it twice
        ({"experiment": ["lineworld", "lineworld"]}, "experiment[1]"),
        # the stream would run twice but summary.json would keep it once; 0.0 == -0.0
        ({"experiment": "lineworld", "lineworld": {"offsets": [-1.0, -1.0, 0.7]}},
         "lineworld.offsets[1]"),
        ({"experiment": "lineworld", "lineworld": {"offsets": [0.0, 0.7, -0.0]}},
         "lineworld.offsets[2]"),
        # a repeated world, level or length: its rows and witnesses would count twice, and
        # theta 0.0 and -0.0 would draw from two Monte Carlo substreams for one world
        ({"experiment": "gaussian", "gaussian": {"theta_grid": [0.0, 0.5, -0.0]}},
         "gaussian.theta_grid[2]"),
        ({"experiment": "gaussian", "gaussian": {"mc_theta_grid": [0.0, -0.0]}},
         "gaussian.mc_theta_grid[1]"),
        ({"experiment": "gaussian", "gaussian": {"alpha_grid": [0.16, 0.01, 0.01]}},
         "gaussian.alpha_grid[2]"),
        ({"experiment": "lineworld", "lineworld": {"uniform_lengths": [1.0, 0.1, 1.0]}},
         "lineworld.uniform_lengths[2]"),
        # ratio**(horizon - 1) cannot take a horizon beyond the float range
        ({"experiment": "perrin", "perrin": {"horizon": 10**3999}}, "perrin.horizon"),
        ({"experiment": "lineworld", "lineworld": {"horizon": 10**300}}, "lineworld.horizon"),
        # --check on no suite would exit 0 having judged nothing
        ({"experiment": [], "check": True}, "experiment"),
        # rounding to 12 decimals would run 101 distinct worlds for 201
        ({"experiment": "lineworld", "check": True,
          "lineworld": {"theta_min": 0, "theta_max": 1e-10, "theta_step": 5e-13, "delta0": 1e-9}},
         "lineworld.theta_step"),
        # ... or run the world 0.0, whose truth is SIMPLE, for 1e-13
        ({"experiment": "lineworld", "lineworld": {"theta_min": 1e-13, "theta_max": 1e-13}},
         "lineworld.theta_min"),
        # ... or write 41 domain rows per axis for 21 distinct worlds
        ({"experiment": "perrin", "perrin": {"grid_lo": 0, "grid_hi": 2e-11, "grid_step": 5e-13}},
         "perrin.grid_step"),
    ], ids=["n_grid", "mc_n_grid", "stream_schedule", "regime_a_n", "regime_b_n",
            "regime_a_n-1e12", "regime_b_n-1e12",
            "regime_a_max_degree", "theta_step", "max_degree-64", "truth-degree-49",
            "truth-degree-49-trailing-zeros",
            "sigma-squared-underflow", "sigma-squared-overflow", "sigma-a-rounding",
            "sigma-b-rounding", "sigma-a-fit-overflow", "sigma-b-fit-overflow",
            "coeffs-a-fit-overflow", "alpha-1e-16",
            "theta-1e-160", "theta-grid-without-0", "alpha-grid-above-slack",
            "lineworld-delta0-1e308", "perrin-delta0-1e308",
            "uniform_length-1e308", "uniform_length-5e-324", "n_grid-1e400",
            "duplicate-experiment", "duplicate-offset", "duplicate-offset-signed-zero",
            "duplicate-theta-signed-zero", "duplicate-mc-theta-signed-zero", "duplicate-alpha",
            "duplicate-uniform-length",
            "horizon-4000-digits", "horizon-1e300",
            "check-no-experiments", "lineworld-rounding-merges", "lineworld-rounding-onto-zero",
            "perrin-rounding-merges"])
    def test_contradiction_exit_two(self, tmp_path, capsys, config, field):
        code, out = run_cli(tmp_path, config)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
        assert not out.exists()

    def test_truth_degree_ignores_trailing_zeros(self, tmp_path, capsys):
        sc = {"regime_a_coeffs": [1.0, 0.0, 0.0], "regime_a_max_degree": 0}
        cli.check_consistency(cli.validate_config(json.dumps({"predsel": sc})))  # degree 0
        sc = {"regime_a_coeffs": [0.0] * 49 + [2.0, 0.0], "regime_a_max_degree": 63}
        assert run_cli(tmp_path, {"experiment": "predsel", "predsel": sc})[0] == 2
        assert capsys.readouterr().err == (
            "config error: predsel.regime_a_coeffs: the true model's degree 49 is above 48, the "
            "most the unbiasedness probe fits on its smallest design, n = 50\n")

    @pytest.mark.parametrize("where", ["a-file", "under-a-file"])
    @pytest.mark.parametrize("field", ["--out", "out_dir"])
    def test_unusable_output_directory_exit_two(self, tmp_path, capsys, where, field):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = {"a-file": blocker, "under-a-file": blocker / "out"}[where]
        config = {"experiment": "lineworld", "lineworld": {"theta_step": 0.1}}
        flags = ["--out", str(out)] if field == "--out" else []
        if field == "out_dir":
            config["out_dir"] = str(out)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: cannot make the directory ")
        assert blocker.read_text() == "kept"
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("field", ["--out", "out_dir"])
    def test_empty_output_path_exit_two(self, tmp_path, capsys, monkeypatch, field):
        # "" would name the current directory and replace its summary.json
        monkeypatch.chdir(tmp_path)
        (tmp_path / "summary.json").write_text("kept")
        config = {"experiment": "lineworld", "lineworld": {"theta_step": 0.1}}
        flags = ["--out", ""] if field == "--out" else []
        if field == "out_dir":
            config["out_dir"] = ""
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert cli.main(["--config", "c.json", *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {field}: expected a non-empty string, got ''\n"
        assert (tmp_path / "summary.json").read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "summary.json"]

    @pytest.mark.parametrize("field", ["--out", "out_dir"])
    def test_nul_in_output_path_exit_two(self, tmp_path, capsys, monkeypatch, field):
        # no directory can be made at such a path: a field-level error, not a traceback
        monkeypatch.chdir(tmp_path)
        config = {"experiment": "lineworld", "lineworld": {"theta_step": 0.1}}
        flags = ["--out", "a\0b"] if field == "--out" else []
        if field == "out_dir":
            config["out_dir"] = "a\0b"
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert cli.main(["--config", "c.json", *flags]) == 2
        assert capsys.readouterr().err == (
            f"config error: {field}: a path cannot hold a NUL character, got 'a\\x00b'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_nul_in_config_path_exit_two(self, capsys):
        # reading such a path raises ValueError, not OSError: a field-level error all the same
        assert cli.main(["--config", "a\0b"]) == 2
        assert capsys.readouterr().err == (
            "config error: --config: a path cannot hold a NUL character, got 'a\\x00b'\n")

    def test_run_checks_the_output_path_it_is_given(self, tmp_path):
        config = cli.validate_config('{"experiment": "lineworld"}')
        with pytest.raises(cli.ConfigError, match="^--out: a path cannot hold a NUL character"):
            cli.run(config, out_dir=str(tmp_path / "a\0b"))
        assert list(tmp_path.iterdir()) == []

    WRITERS = {  # a file of each write path, and a small run that writes it
        "summary.json": {"experiment": "lineworld", "lineworld": {"theta_step": 0.1}},
        "manifest.json": {"experiment": "lineworld", "lineworld": {"theta_step": 0.1}},
        "selection.csv": {"experiment": "predsel", "predsel": {
            "regime_a_reps": 100, "regime_b_reps": 100, "regime_a_n": 60, "probe_reps": 100}},
        "domain_ockham_realist.csv": {"experiment": "perrin", "perrin": {
            "grid_step": 0.25, "coverage_reps": 50, "coverage_size": 100}},
    }

    @pytest.mark.parametrize("name", list(WRITERS))
    def test_output_file_that_is_a_directory_exit_two(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, _ = run_cli(tmp_path, self.WRITERS[name])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write the file {out / name}: ")
        assert (out / name).is_dir()
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("config, start", [
        ({"seed": [0] * 100_000}, "seed: expected an integer, got [0, 0, "),
        ({"experiment": "x" * 100_000}, "experiment: unknown experiment 'xxx"),
        ({"k" * 100_000: 1}, "unknown key 'kkk"),
        ({"gaussian": {"mc_trials": 10**3999}}, "gaussian.mc_trials: 1000"),
    ], ids=["long-list", "long-string", "long-key", "4000-digit-integer"])
    def test_oversized_value_exit_two(self, tmp_path, capsys, config, start):
        # the offending value is abbreviated, not printed whole
        code, out = run_cli(tmp_path, config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {start}") and len(err) < 300
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"seed": [1, 2]}, "seed: expected an integer, got [1, 2]"),
        ({"check": "yes"}, "check: expected true/false, got 'yes'"),
        ({"out_dir": 5}, "out_dir: expected a string, got 5"),
        ({"format": "csv"}, "unknown key 'format'"),
        ({"experiment": ["perrin", "x"]}, "experiment: unknown experiment 'x'"),
        ({"perrin": {"way9": 1}}, "unknown key 'perrin.way9'"),
        ({"gaussian": {"mc_trials": 10**30}},
         "gaussian.mc_trials: 1000000000000000000000000000000 above the valid range"),
        ({"perrin": {"ratio": 1.5}}, "perrin.ratio: 1.5 above the valid range"),
        ({"experiment": [["lineworld"]]}, "experiment: unknown experiment ['lineworld']"),
        ({"lineworld": {"offsets": [-1.0, -1.0]}},
         "lineworld.offsets[1]: -1.0 repeats lineworld.offsets[0] = -1.0"),
        ({"gaussian": 5}, "gaussian: expected an object, got 5"),
        ([1], "config: expected an object, got [1]"),
        ({"plots": False}, "unknown key 'plots'"),
        ({"plots": True}, "unknown key 'plots'"),
        ({"format": "json"}, "unknown key 'format'"),
    ])
    def test_short_values_print_whole(self, tmp_path, capsys, config, message):
        assert run_cli(tmp_path, config)[0] == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("config, field", [
        ({"perrin": {"grid_hi": 1000000}}, "perrin.grid_step"),
        ({"lineworld": {"theta_max": 1000000}}, "lineworld.theta_step"),
        ({"perrin": {"grid_step": 1e-308}}, "perrin.grid_step"),
        ({"lineworld": {"theta_step": 1e-308}}, "lineworld.theta_step"),
        ({"perrin": {"grid_step": 1e-7}}, "perrin.grid_step"),
        # 500 steps: 1001**2 + 1001 = 1,003,002 refined worlds
        ({"perrin": {"grid_lo": 0, "grid_hi": 5, "grid_step": 0.01}}, "perrin.grid_step"),
    ], ids=["grid_hi-1e6", "theta_max-1e6", "grid_step-1e-308", "theta_step-1e-308",
            "grid_step-1e-7", "perrin-just-above"])
    def test_world_count_limit_exit_two(self, tmp_path, capsys, config, field):
        start = time.perf_counter()
        code, out = run_cli(tmp_path, config)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:") and "above the limit of 1000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, field", [
        ({"experiment": "gaussian", "gaussian": {"mc_trials": 10**30}}, "gaussian.mc_trials"),
        ({"experiment": "perrin", "perrin": {"stream_schedule": [10, 10**21], "grid_step": 0.25,
                                             "coverage_reps": 10}}, "perrin.stream_schedule[1]"),
        ({"experiment": "perrin", "perrin": {"coverage_reps": 10**30}}, "perrin.coverage_reps"),
        ({"experiment": "perrin", "perrin": {"coverage_size": 10**30}}, "perrin.coverage_size"),
        ({"experiment": "predsel", "predsel": {"regime_a_reps": 10**30}}, "predsel.regime_a_reps"),
        ({"experiment": "predsel", "predsel": {"regime_b_reps": 10**30}}, "predsel.regime_b_reps"),
        ({"experiment": "predsel", "predsel": {"probe_reps": 10**30}}, "predsel.probe_reps"),
    ], ids=["mc_trials", "stream_schedule", "coverage_reps", "coverage_size", "regime_a_reps",
            "regime_b_reps", "probe_reps"])
    def test_array_size_limit_exit_two(self, tmp_path, capsys, config, field):
        code, out = run_cli(tmp_path, config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:") and "above the valid range" in err
        assert not out.exists()

    def test_array_size_limits_are_inclusive(self):
        cli.validate_config(json.dumps({
            "gaussian": {"mc_trials": 10**7},
            "perrin": {"coverage_reps": 10**7, "coverage_size": 10**6,
                       "stream_schedule": [10, 10**6]},
            "predsel": {"regime_a_reps": 10**5, "regime_b_reps": 10**5, "probe_reps": 10**5}}))

    @pytest.mark.parametrize("suite", ["lineworld", "perrin"])
    def test_ratio_near_one_exit_two(self, tmp_path, capsys, suite):
        # the oracle would step about 10**16 stages at the smallest gap
        with time_limit(10):
            code, out = run_cli(tmp_path, {"experiment": suite,
                                           suite: {"ratio": 0.9999999999999999}})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {suite}.ratio:") and "above the limit" in err
        assert not out.exists()

    def test_oracle_stage_limit_reads_the_smallest_gap(self):
        # 0.999 needs about 29,000 stages below a perrin gap of DIAG_TOL;
        # 0.9999 on a lineworld axis whose smallest |theta| is 0.01, about 53,000
        with time_limit(10):
            cli.check_consistency(cli.validate_config(json.dumps({
                "perrin": {"ratio": 0.999}, "lineworld": {"ratio": 0.9999, "horizon": 100}})))
        with pytest.raises(cli.ConfigError, match="perrin.ratio"):
            cli.check_consistency(cli.validate_config(json.dumps({"perrin": {"ratio": 0.9999}})))
        with pytest.raises(cli.ConfigError, match="perrin.ratio: .* the gap 1e-300"):
            cli.check_consistency(cli.validate_config(json.dumps({
                "perrin": {"ratio": 0.999, "way3_delta0": 1e-300}})))

    def test_world_count_limit_is_inclusive(self):
        # 499 steps: 999**2 + 999 = 999,000 refined perrin worlds; a
        # million lineworld worlds
        cli.check_consistency(cli.validate_config(json.dumps({
            "perrin": {"grid_lo": 0, "grid_hi": 4.99, "grid_step": 0.01},
            "lineworld": {"theta_min": 0, "theta_max": 999999, "theta_step": 1}})))

    def test_step_beyond_the_span_exit_two(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, {"experiment": "perrin", "perrin": {"grid_step": 1e10}})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: perrin.grid_step: step must divide")
        assert not out.exists()

    def test_sigma_floor_admits_what_it_should(self):
        # regime B's floor at n = 500 is 64 eps * 500 = 7.1e-12; the zero truth has none
        cli.check_consistency(cli.validate_config(json.dumps({"predsel": {
            "regime_b_sigma": 7.2e-12, "regime_a_coeffs": [0.0], "regime_a_sigma": 1e-150}})))

    def test_sigma_ceiling_admits_what_it_should(self):
        # just under the ceiling at the falsifying design size every score stays finite
        sc = {"regime_a_coeffs": [0.0], "regime_a_sigma": 1.3e124, "regime_a_max_degree": 13,
              "regime_a_n": 15, "regime_b_sigma": 4.6e125}
        cli.check_consistency(cli.validate_config(json.dumps({"predsel": sc})))
        for seed in range(4):
            summary = ps.regime_experiment(ps.poly_truth([0.0], sc["regime_a_sigma"]), range(14),
                                           15, 1000, seed)
            assert np.isfinite(summary.scores).all()

    def test_zero_polynomial_truth_runs(self, tmp_path):
        # the probe degree of the zero polynomial is 0
        code, out = run_cli(tmp_path, {"experiment": "predsel", "predsel": {
            "regime_a_coeffs": [0.0, 0.0], "regime_a_n": 50, "regime_a_reps": 100,
            "regime_b_n": 50, "regime_b_reps": 100, "probe_reps": 100}})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())["predsel"]
        assert summary["true_model_in_set"]["true_degree"] == 0

    def test_high_degree_truth_runs(self, tmp_path):
        # the Legendre design stays well conditioned at every allowed degree
        code, out = run_cli(tmp_path, {"experiment": "predsel", "check": True, "predsel": {
            "regime_a_coeffs": [0.0] * 48 + [1.0], "regime_a_max_degree": 63,
            "regime_b_max_degree": 63, "regime_a_reps": 100, "regime_b_reps": 100,
            "probe_reps": 100}})
        assert code in (0, 1)
        summary = json.loads((out / "summary.json").read_text())["predsel"]
        assert summary["true_model_in_set"]["true_degree"] == 48

    @settings(max_examples=100)  # random predsel sections run end to end: exit 0, 1 or 2
    @example(coeffs=[0.0], sigma=1.2755e143, max_a=13, max_b=12, n_a=15, n_b=120, check=False)
    @given(coeffs=st.lists(st.sampled_from([0.0, 0.0, 1.0, -2.5, 1e-3]), min_size=1, max_size=70),
           sigma=st.one_of(st.floats(0.01, 10.0), st.floats(1e-300, 1e300)),
           max_a=st.integers(0, 70), max_b=st.integers(0, 70),
           n_a=st.integers(4, 120), n_b=st.integers(4, 120), check=st.booleans())
    def test_predsel_section_fuzz_never_raises(self, coeffs, sigma, max_a, max_b, n_a, n_b, check):
        section = {"regime_a_coeffs": coeffs, "regime_a_sigma": sigma,
                   "regime_a_max_degree": max_a, "regime_b_max_degree": max_b,
                   "regime_a_n": n_a, "regime_b_n": n_b,
                   "regime_a_reps": 100, "regime_b_reps": 100, "probe_reps": 100}
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run_cli(Path(tmp), {"experiment": "predsel", "check": check,
                                          "predsel": section})
        assert code in (0, 1, 2)

    @settings(max_examples=100)  # random gaussian sections run end to end: exit 0, 1 or 2
    @given(thetas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
           mc_thetas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
           sizes=st.lists(st.integers(2, 10**6), min_size=1, max_size=4, unique=True),
           mc_sizes=st.lists(st.integers(2, 10**6), min_size=1, max_size=2, unique=True),
           alphas=st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=3),
           edge=st.one_of(st.none(), st.sampled_from(GAUSSIAN_EDGES)), check=st.booleans())
    def test_gaussian_section_fuzz_never_raises(self, thetas, mc_thetas, sizes, mc_sizes,
                                                alphas, edge, check):
        section = {"theta_grid": thetas, "mc_theta_grid": mc_thetas, "n_grid": sizes,
                   "mc_n_grid": mc_sizes, "alpha_grid": alphas}
        if edge:
            section[edge[0]].append(edge[1])
        for key in ("n_grid", "mc_n_grid"):
            section[key] = sorted(set(section[key]))
        section["mc_trials"] = 1000
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run_cli(Path(tmp), {"experiment": "gaussian", "check": check,
                                          "gaussian": section})
        assert code in (0, 1, 2)

    @settings(max_examples=100)  # random lineworld sections run end to end: exit 0, 1 or 2
    @given(lo=st.integers(-20, 20), span=st.integers(0, 40), step=st.floats(0.05, 1.0),
           horizon=st.integers(1, 40), delta0=st.floats(1e-3, 10.0), ratio=st.floats(0.3, 0.95),
           offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
           lengths=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=3),
           budget=st.integers(10, 200),
           edge=st.one_of(st.none(), st.sampled_from(LINEWORLD_EDGES)), check=st.booleans())
    def test_lineworld_section_fuzz_never_raises(self, lo, span, step, horizon, delta0, ratio,
                                                 offsets, lengths, budget, edge, check):
        section = {"theta_min": lo * step, "theta_max": (lo + span) * step, "theta_step": step,
                   "horizon": horizon, "delta0": delta0, "ratio": ratio, "offsets": offsets,
                   "uniform_lengths": lengths, "razor_budget": budget}
        if edge and edge[0] == "uniform_lengths":
            lengths.append(edge[1])
        elif edge:
            section[edge[0]] = edge[1]
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run_cli(Path(tmp), {"experiment": "lineworld", "check": check,
                                          "lineworld": section})
        assert code in (0, 1, 2)

    @settings(max_examples=60)  # random perrin sections run end to end: exit 0, 1 or 2
    @given(lo=st.integers(-5, 10), span=st.integers(1, 6), step=st.floats(0.05, 1.0),
           horizon=st.integers(1, 30), delta0=st.floats(1e-3, 10.0), ratio=st.floats(0.3, 0.95),
           ps=st.lists(st.floats(-2.0, 3.0), min_size=2, max_size=2),
           gates=st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3),
           reps=st.integers(10, 30), size=st.integers(10, 100),
           schedule=st.lists(st.integers(2, 300), min_size=1, max_size=3, unique=True),
           edge=st.one_of(st.none(), st.sampled_from(PERRIN_EDGES)), check=st.booleans())
    def test_perrin_section_fuzz_never_raises(self, lo, span, step, horizon, delta0, ratio, ps,
                                              gates, reps, size, schedule, edge, check):
        section = {"grid_lo": lo * step, "grid_hi": (lo + span) * step, "grid_step": step,
                   "horizon": horizon, "delta0": delta0, "ratio": ratio,
                   "way1_p": ps[0], "way2_p": ps[1], "way1_eps": gates[0],
                   "way2_delta0": gates[1], "way3_delta0": gates[2],
                   "coverage_reps": reps, "coverage_size": size,
                   "stream_schedule": sorted(schedule)}
        if edge:
            section[edge[0]] = edge[1]
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run_cli(Path(tmp), {"experiment": "perrin", "check": check,
                                          "perrin": section})
        assert code in (0, 1, 2)

    def test_one_world_lineworld(self, tmp_path):
        code, out = run_cli(tmp_path, {"experiment": "lineworld", "lineworld": {
            "theta_min": 0.25, "theta_max": 0.25, "theta_step": 0.3}})
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["lineworld"]["worlds"] == 1

    def test_short_horizon_fails_maximality_without_traceback(self, tmp_path):
        args = ["--experiment", "perrin", "--grid-step", "0.1", "--horizon", "3"]
        assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
        scoresheet = json.loads((tmp_path / "a" / "scoresheet.json").read_text())
        witnesses = scoresheet["OCKHAM_REALIST"]["maximal"]["witnesses"]
        assert witnesses and all(w["check"] == "undetermined" for w in witnesses)
        assert cli.main([*args, "--check", "--out", str(tmp_path / "b")]) == 1


class TestChecksJudgeTheRun:
    @pytest.mark.parametrize("name", list(cli.SUITES))
    def test_runner_returns_its_verdicts_without_reading_check(self, tmp_path, name):
        # only run reads `check`: a runner judges its results whatever it says
        config = cli.validate_config(json.dumps({**TestWritePath.CONFIG, "experiment": name}))
        del config["check"]
        jobs, finish = cli.SUITES[name](config, cli.Outputs(tmp_path))
        _, results = finish(*[job() for _, job in jobs])
        assert results and all(check.startswith(name) for check, _, _ in results)

    def test_perrin_studies_coverage_once_per_kind(self, tmp_path, monkeypatch):
        # --check judges the widths the run's own two studies computed, at one worker
        # and at two, where the Brownian study runs in a forked child
        for workers in (1, 2):
            monkeypatch.setattr("convlab.jobs.usable_cpus", lambda: workers)
            run_dir = tmp_path / str(workers)
            run_dir.mkdir()
            studied = count_calls(monkeypatch, run_dir, pr, "coverage_study", lambda args: args[0])
            code, out = run_cli(run_dir, {"experiment": ["perrin"], "perrin": {
                "grid_step": 0.25, "stream_schedule": [50, 100]}}, "--check")
            assert code == 0
            assert sorted(studied()) == ["brownian", "sediment"]
            summary = json.loads((out / "summary.json").read_text())
            assert summary["checks"]["perrin_estimators"]["pass"]

    def test_lineworld_traces_each_world_and_stream_once(self, tmp_path, monkeypatch):
        for workers in (1, 2):
            monkeypatch.setattr("convlab.jobs.usable_cpus", lambda: workers)
            run_dir = tmp_path / str(workers)
            run_dir.mkdir()
            traced = count_calls(monkeypatch, run_dir, lw, "trace", lambda args: args[1])
            code, out = run_cli(run_dir, {"experiment": ["lineworld"],
                                          "lineworld": {"theta_step": 0.1}}, "--check")
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())["lineworld"]
            assert summary["worlds"] == 11
            assert len(traced()) == summary["worlds"] * len(summary["pointwise_by_stream"]) == 33

    @pytest.mark.parametrize("check", [False, True])
    def test_predsel_probes_each_size_once(self, tmp_path, monkeypatch, check):
        # --check judges the run's own probes; it reruns none of them
        for workers in (1, 2):
            monkeypatch.setattr("convlab.jobs.usable_cpus", lambda: workers)
            run_dir = tmp_path / str(workers)
            run_dir.mkdir()
            probed = count_calls(monkeypatch, run_dir, ps, "unbiasedness_probe",
                                 lambda args: args[2])
            config = {"experiment": ["predsel"], "check": check,
                      "predsel": {"regime_a_reps": 100, "regime_b_reps": 100, "probe_reps": 200}}
            code, out = run_cli(run_dir, config)
            assert code in (0, 1)
            assert probed() == list(PROBE_SIZES)
            checks_run = json.loads((out / "summary.json").read_text()).get("checks", {})
            assert ("predsel_unbiasedness" in checks_run) is check


def count_calls(monkeypatch, tmp_path, module, name, key):
    """Wrap module.name so that each call, in this process or a worker forked
    from it, appends key(args) to a file; the returned function reads them back,
    in the order the file received them."""
    log = tmp_path / f"{name}.calls"
    log.touch()
    original = getattr(module, name)

    def counting(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps(key(args)) + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return lambda: [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]


def parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestWritePath:
    CONFIG = {
        "experiment": "all",
        "seed": 5,
        "gaussian": {"mc_trials": 2000, "n_grid": [10, 100], "mc_n_grid": [100]},
        "lineworld": {"theta_step": 0.1},
        "predsel": {"regime_a_reps": 100, "regime_b_reps": 100, "regime_a_n": 60,
                    "regime_b_n": 60, "regime_b_max_degree": 5, "probe_reps": 100},
        "perrin": {"grid_step": 0.25, "coverage_reps": 50, "coverage_size": 100,
                   "stream_schedule": [50, 100]},
    }

    # the tables and JSON files of an `all` run, as its manifest lists them
    OUTPUTS = ["curves", *(f"domain_{kind}" for kind in
                           ("anti_realist", "ockham_realist", "way1", "way2", "way3")),
               "selection", "selection_misspecified"]

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        """The run's output directory."""
        code, out = run_cli(tmp_path_factory.mktemp("all"), self.CONFIG)
        assert code == 0
        return out

    def test_manifest_lists_the_primary_outputs_only(self, out):
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        expected = sorted([f"{base}.csv" for base in self.OUTPUTS]
                          + ["scoresheet.json", "summary.json"])
        assert sorted(listed) == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(expected + ["manifest.json"])

    def test_float_cells_read_back_exactly(self, out):
        # a float cell is its repr, so float(cell) is the value the run held
        tables = sorted(p.relative_to(out) for p in out.rglob("*.csv"))
        assert tables == sorted(Path(f"{base}.csv") for base in self.OUTPUTS)
        for rel in tables:
            rows = read_rows(out / rel)
            floats = [cell for row in rows for cell in row.values()
                      if not cell.lstrip("-").isdigit() and parses_as_float(cell)]
            assert rows and len(floats) >= len(rows), rel  # every table has a float column
            assert all(repr(float(cell)) == cell for cell in floats), rel


class TestStreamedWriter:
    """write_csv streams any iterable of rows into its file; the bytes and the
    digest are those of the whole-file writer it replaced."""

    FLOATS = st.floats() | st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-309, 1e300])
    TEXT = st.text() | st.text(alphabet=st.sampled_from(',"\n\r \'ab\u00e9'))
    CELLS = st.none() | st.integers() | TEXT | FLOATS

    @settings(max_examples=60, deadline=None)
    @given(header=st.lists(TEXT, min_size=1, max_size=4),
           rows=st.lists(st.lists(CELLS, max_size=6).map(tuple), max_size=40))
    def test_bytes_and_digest_match_whole_file_writer(self, header, rows):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            expected = ref.write_csv_whole(tmp / "whole.csv", header, rows)
            for name, given_rows in (("list.csv", list(rows)), ("gen.csv", (r for r in rows))):
                digest = cli.write_csv(tmp / name, header, given_rows)
                data = (tmp / name).read_bytes()
                assert data == (tmp / "whole.csv").read_bytes()
                assert digest == expected == hashlib.sha256(data).hexdigest()
            assert sorted(p.name for p in tmp.iterdir()) == ["gen.csv", "list.csv", "whole.csv"]


class TestPlots:
    """The series a plot reads, derived from the primary files (README, Outputs)."""

    def test_constant_level_series_present(self, tmp_path):
        config = {"experiment": ["gaussian"],
                  "gaussian": {"mc_trials": 2000, "mc_n_grid": [10],
                               "n_grid": [10, 100, 1000]}}
        _, out = run_cli(tmp_path, config)
        aic_label = "fixed_z(1.4142135623730951)"
        vals = [float(r["truth_prob"]) for r in read_rows(out / "curves.csv")
                if r["rule"] == aic_label and float(r["theta"]) == 0.0 and r["se"] == ""]
        assert len(vals) == 3
        assert all(abs(v - 0.8427007929497149) < 1e-12 for v in vals)

    def test_domain_map_codes(self, tmp_path):
        _, out = run_cli(tmp_path, SMALL_CONFIG)
        rows = read_rows(out / "domain_anti_realist.csv")
        assert {r["status"] for r in rows} <= {s.value for s in pr.CODES}
        assert {r["status"] for r in rows if r["component"] == "strand"} == {"DIVERGES"}


class TestDomainRows:
    """run_perrin renders the grid's coordinates once per run, as csv.writer
    writes a float; the domain files hold what csv.writer makes of the float
    rows of each sheet's coarse domain."""

    @pytest.mark.parametrize("lo, hi, step", [
        (0.1, 1.0, 0.3), (0.0, 1.0, 1 / 3), (-0.7, 0.2, 0.3), (1e-5, 5e-5, 1e-5),
        (1e6, 2e6, 2.5e5),
    ], ids=["lo-0.1-step-0.3", "step-one-third", "negative-lo", "scale-1e-5", "scale-1e6"])
    def test_files_hold_the_float_rows(self, tmp_path, lo, hi, step):
        config = cli.validate_config(json.dumps({
            "experiment": "perrin",
            "perrin": {"grid_lo": lo, "grid_hi": hi, "grid_step": step, "coverage_reps": 10,
                       "coverage_size": 100, "stream_schedule": [50, 100]}}))
        cli.run(config, str(tmp_path))
        pc = config["perrin"]
        methods = cli.perrin_methods(pc)
        sheets = pr.score_sheets(methods, lw.GridSpec(lo, hi, step),
                                 lw.StreamSpec(pc["delta0"], pc["ratio"]), pc["horizon"])
        header = ("component", "a", "b", "status", "settle_stage")
        for m, sheet in zip(methods, sheets):
            cells = ref.cells(sheet.domain)
            rows = [(*w, status.value, t) for *w, status, t in cells]
            text = io.StringIO(newline="")
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            assert (tmp_path / f"domain_{m.kind.lower()}.csv").read_bytes() == (
                text.getvalue().encode("utf-8"))
