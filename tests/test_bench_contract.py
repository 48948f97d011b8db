"""bench/ drives convlab by name: bench/layers.py wraps functions, and
bench/worker.py reads the files a run writes.  Both must keep working,
or `bench/run.py` breaks (--trace 1) or silently stops matching outputs."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layers = load_bench("layers")


@pytest.mark.parametrize("module, function", sorted({*_layers.SPANS, *_layers.COUNTS}))
def test_wrapped_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"convlab.{module}"), function))


def test_run_writes_every_pinned_output(tmp_path):
    config = cli.validate_config(json.dumps({
        "experiment": ["perrin", "lineworld"],
        "perrin": {"grid_step": 0.25, "coverage_reps": 50, "coverage_size": 100,
                   "stream_schedule": [50, 100]},
        "lineworld": {"theta_step": 0.1},
    }))
    cli.run(config, out_dir=str(tmp_path))
    pinned = load_bench("worker").pinned_outputs(str(tmp_path))
    kinds = ("ockham_realist", "anti_realist", "way1", "way2", "way3")
    assert set(pinned) == {
        *(f"digest/domain_{kind}.csv" for kind in kinds), "digest/scoresheet.json",
        "summary/perrin.pattern", "summary/lineworld.pointwise",
        "summary/lineworld.razor", "summary/lineworld.uniform",
    }
    manifest = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    for key, digest in pinned.items():
        if key.startswith("digest/"):
            assert manifest[key.removeprefix("digest/")] == digest


@pytest.mark.parametrize("workload", ["lineworld-deep", "perrin-default", "predsel-gaussian"])
def test_workload_matches_its_reference(tmp_path, monkeypatch, workload):
    """A workload's check verdicts and pinned outputs at config seed 0 are
    those bench/reference.json records, as bench/run.py judges them."""
    monkeypatch.syspath_prepend(str(BENCH))  # bench/run.py imports bench/speed.py
    entry = json.loads((BENCH / "reference.json").read_text())[workload]
    at_seed = entry["seeds"]["0"]
    config = cli.validate_config(json.dumps({**load_bench("run").WORKLOADS[workload], "seed": 0}))
    outcome = cli.run(config, out_dir=str(tmp_path))
    checks = {name: c["pass"] for name, c in outcome.summary["checks"].items()}
    assert list(checks) == entry["checks"]
    assert [name for name, ok in checks.items() if not ok] == at_seed["failing"]
    pinned = load_bench("worker").pinned_outputs(str(tmp_path))
    assert pinned == {**entry["pinned"], **at_seed["pinned"]}


def test_traced_run_reaches_the_kernels(tmp_path):
    """A traced worker run times the oracle, the classification and the
    draws the run itself calls: bench/layers.py wraps them by these names.
    At W >= 2 workers the tracer sees only the jobs the traced process runs
    itself, worker 0's share of the run's one pool; a forked worker's spans
    are lost.  Still 0 in such a run, left to the next change to the
    benchmark (ROADMAP items 1 and 2: the run reports its own profile, and
    the benchmark reads it while the benchmark-only scalar path goes):
    perrin.stages beyond the witness replays, since the sweep runs no
    scalar trace, and predsel.fit_s, predsel.fits and predsel.risk_s, since
    the regimes fit and score in one kernel that no span wraps."""
    job = {
        "config": {
            "experiment": ["perrin", "lineworld", "predsel"],
            "perrin": {"grid_step": 0.25, "coverage_reps": 50, "coverage_size": 100,
                       "stream_schedule": [50, 100]},
            "lineworld": {"theta_step": 0.1},
            "predsel": {"regime_a_reps": 100, "regime_b_reps": 100, "probe_reps": 100},
        },
        "trace": True, "run_id": "contract", "out": str(tmp_path / "out"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), "run", json.dumps(job)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    layers = json.loads(done.stdout.splitlines()[-1])["layers"]
    for metric in ("perrin.oracle_s", "framework.classify_s", "predsel.generate_s"):
        assert layers[metric] > 0, metric
