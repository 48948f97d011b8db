"""convlab.jobs.run_jobs: a suite's independent jobs on W workers, this process being
worker 0 and each other worker a forked child.  The outputs, the printed
lines, the exit code and the manifest's digests do not depend on W, and
every path, failed ones included, leaves no child and no temporary file."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from convlab import cli
from convlab.jobs import run_jobs
from convlab.framework import OracleContradiction, StreamError

SMALL = {
    "seed": 3,
    "gaussian": {"mc_trials": 1000, "n_grid": [10, 100], "mc_n_grid": [100]},
    "lineworld": {"theta_step": 0.1, "horizon": 30},
    "predsel": {"regime_a_reps": 100, "regime_b_reps": 100, "regime_a_n": 60, "regime_b_n": 60,
                "regime_b_max_degree": 5, "probe_reps": 100},
    "perrin": {"grid_step": 0.25, "coverage_reps": 50, "coverage_size": 100,
               "stream_schedule": [50, 100]},
}


def force_workers(monkeypatch, workers):
    monkeypatch.setattr("convlab.jobs.usable_cpus", lambda: workers)


def run_main(tmp_path, capsys, config, *flags):
    """Exit code, stdout and stderr of one cli.main run into tmp_path/out."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), *flags])
    std = capsys.readouterr()
    return code, std.out, std.err


def files(out: Path) -> dict:
    """Every file's bytes under out, but manifest.json's, which holds timings."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.fixture(autouse=True)
def bounded(tmp_path):
    """Each test ends within a minute, raising TimeoutError in place of a hang,
    and leaves no child of this process, reaped or not, and no *.tmp file."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("plots", [True, False], ids=["plots", "no-plots"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("experiment", [*cli.EXPERIMENTS, "all"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch,
                                                   experiment, fmt, plots):
    config = {**SMALL, "experiment": experiment, "format": fmt, "plots": plots}
    seen = {}
    for workers in (1, 2, 3, 8):
        force_workers(monkeypatch, workers)
        run_dir = tmp_path / str(workers)
        run_dir.mkdir()
        code, stdout, stderr = run_main(run_dir, capsys, config, "--check")
        manifest = json.loads((run_dir / "out" / "manifest.json").read_text())
        seen[workers] = (code, stdout, stderr, manifest["outputs"], files(run_dir / "out"))
        assert code in (0, 1) and stderr == ""
        most_jobs = max(Counter(job["suite"] for job in manifest["jobs"]).values())
        assert manifest["workers"] == min(workers, most_jobs)
    assert seen[2] == seen[1] and seen[3] == seen[1] and seen[8] == seen[1]


def test_manifest_logs_each_job_and_the_workers(tmp_path, capsys, monkeypatch):
    runs = {}
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        (tmp_path / str(workers)).mkdir()
        run_main(tmp_path / str(workers), capsys, {**SMALL, "experiment": "all"})
        runs[workers] = json.loads((tmp_path / str(workers) / "out" / "manifest.json").read_text())
    jobs = {"lineworld": ["centered(d0=1.0,r=0.7)", "offcenter(d0=1.0,r=0.7,lam=-1.0)",
                          "offcenter(d0=1.0,r=0.7,lam=0.7)", "uniform", "razor"],
            "gaussian": ["fixed_z(1.4142135623730951)", "fixed_z(1.96)", "bic"],
            "predsel": ["regime_a", "regime_b", "probes"],
            "perrin": ["score_sheets", "brownian", "sediment"]}
    for workers, manifest in runs.items():
        assert [(j["suite"], j["job"]) for j in manifest["jobs"]] == [
            (suite, job) for suite, names in jobs.items() for job in names]
        for suite in jobs:
            logged = [j["worker"] for j in manifest["jobs"] if j["suite"] == suite]
            assert logged == [i % workers for i in range(len(logged))]
        assert all(j["seconds"] >= 0 for j in manifest["jobs"])
        assert manifest["workers"] == workers
    assert runs[1]["children_peak_rss_mib"] is None
    assert runs[2]["children_peak_rss_mib"] > 0


# ---------------------------------------------------------------------------
# failed jobs: the first failure in serial order, whichever worker ran it


def in_child(test_pid):
    """True in a forked worker; a job meant for one fails loudly anywhere else."""
    if os.getpid() == test_pid:
        raise AssertionError("this job was meant to run in a forked worker")
    return True


def with_jobs(monkeypatch, jobs):
    """Make the lineworld suite a run_jobs call on `jobs`."""
    def runner(cfg, out):
        return {"results": run_jobs(out, "lineworld", jobs)}, []
    monkeypatch.setitem(cli.SUITES, "lineworld", runner)


@pytest.mark.parametrize("error", cli.RUN_ERRORS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("where", [0, 1], ids=["parent-job", "child-job"])
def test_run_error_in_any_job_exits_as_serial(tmp_path, capsys, monkeypatch, error, where):
    def failing():
        raise error("the job stopped")

    jobs = [("first", lambda: 1), ("second", lambda: 2)]
    jobs[where] = (jobs[where][0], failing)
    with_jobs(monkeypatch, jobs)
    outcomes = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        outcomes.append(run_main(tmp_path, capsys, {"experiment": "lineworld"}, "--check"))
    assert outcomes[0] == outcomes[1] == (3, "", "run error: the job stopped\n")


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing, first", [((1, 2), 1), ((0, 1), 0), ((2, 3), 2)])
def test_the_earliest_failed_job_is_reported(tmp_path, capsys, monkeypatch, workers,
                                             failing, first):
    def job(i):
        if i in failing:
            raise (StreamError if i % 2 else OracleContradiction)(f"job {i} stopped")
        return i

    with_jobs(monkeypatch, [(str(i), lambda i=i: job(i)) for i in range(4)])
    force_workers(monkeypatch, workers)
    assert run_main(tmp_path, capsys, {"experiment": "lineworld"}) == (
        3, "", f"run error: job {first} stopped\n")


def test_child_write_failure_exits_two_as_serial(tmp_path, capsys, monkeypatch):
    # regime B, job 1, writes selection_misspecified.csv in a forked worker
    config = {"experiment": "predsel", "predsel": SMALL["predsel"]}
    outcomes = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        (tmp_path / "out" / "selection_misspecified.csv").mkdir(parents=True, exist_ok=True)
        outcomes.append(run_main(tmp_path, capsys, config))
    target = tmp_path / "out" / "selection_misspecified.csv"
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2
    assert outcomes[0][2].startswith(f"config error: cannot write the file {target}: ")
    assert target.is_dir() and not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
], ids=["os-exit", "sigkill"])
def test_dead_child_is_a_one_line_run_error(tmp_path, capsys, monkeypatch, death, how):
    test_pid = os.getpid()
    with_jobs(monkeypatch, [("first", lambda: 1), ("second", lambda: in_child(test_pid) and death()),
                            ("third", lambda: 3)])
    force_workers(monkeypatch, 2)
    assert run_main(tmp_path, capsys, {"experiment": "lineworld"}) == (
        3, "", f"run error: the lineworld worker 1 (second) {how} before it reported\n")


def test_interrupted_parent_kills_and_reaps_its_children(tmp_path, monkeypatch):
    test_pid = os.getpid()

    def interrupted():
        raise KeyboardInterrupt

    # a child left to finish would sleep past the time limit
    jobs = [("first", interrupted), ("second", lambda: in_child(test_pid) and time.sleep(600))]
    force_workers(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        run_jobs(cli.Outputs(tmp_path, "csv"), "suite", jobs)


def test_large_child_results_arrive_whole(tmp_path, monkeypatch):
    # far beyond a pipe's 64 KiB buffer: the parent reads before it waits
    force_workers(monkeypatch, 3)
    blob = os.urandom(1 << 21)
    out = cli.Outputs(tmp_path, "csv")
    assert run_jobs(out, "suite", [(str(i), lambda i=i: (i, blob)) for i in range(5)]) == [
        (i, blob) for i in range(5)]
    assert [j["worker"] for j in out.jobs] == [0, 1, 2, 0, 1]


def test_child_digests_reach_the_parent(tmp_path, monkeypatch):
    force_workers(monkeypatch, 2)
    out = cli.Outputs(tmp_path, "csv")
    run_jobs(out, "suite", [(name, lambda name=name: out.emit_json(name, [name]))
                                for name in ("a.json", "b.json", "c.json")])
    assert out.digests == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                           for name in ("a.json", "b.json", "c.json")}


def test_unpicklable_child_result_is_a_run_error(tmp_path, capsys, monkeypatch):
    with_jobs(monkeypatch, [("first", lambda: 1), ("second", lambda: (x for x in ()))])
    force_workers(monkeypatch, 2)
    code, _, err = run_main(tmp_path, capsys, {"experiment": "lineworld"})
    assert code == 3
    assert err.splitlines()[-1] == (
        "run error: the lineworld worker 1 (second) exited with status 1 before it reported")


def test_failed_fork_runs_the_jobs_here(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    force_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    out = cli.Outputs(tmp_path, "csv")
    assert run_jobs(out, "suite", [(str(i), lambda i=i: i) for i in range(4)]) == [0, 1, 2, 3]
    assert [j["worker"] for j in out.jobs] == [0, 1, 2, 0]


# ---------------------------------------------------------------------------
# one worker: no fork and no pickle


def test_one_worker_forks_nothing(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked at one worker")

    force_workers(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    code, _, err = run_main(tmp_path, capsys, {**SMALL, "experiment": "all"}, "--check")
    assert code in (0, 1) and err == ""


def test_usable_cpus_is_one_while_a_thread_runs():
    src = str(Path(cli.__file__).parents[1])
    script = ("import json, os, sys, threading; from convlab import jobs; "
              "alone = jobs.usable_cpus(); stop = threading.Event(); "
              "t = threading.Thread(target=stop.wait); t.start(); "
              "threaded = jobs.usable_cpus(); stop.set(); t.join(); "
              "print(json.dumps([alone, len(os.sched_getaffinity(0)), threaded]))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    alone, cpus, threaded = json.loads(done.stdout)
    assert alone == cpus and threaded == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_only_forking_loads_pickle(tmp_path, workers):
    # a lineworld process loads no numpy, so nothing else brings pickle in
    src = str(Path(cli.__file__).parents[1])
    script = (f"import sys; from convlab import cli, jobs; jobs.usable_cpus = lambda: {workers}; "
              f"code = cli.main(['--experiment', 'lineworld', '--out', {str(tmp_path)!r}]); "
              f"print(code, 'pickle' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["0", str(workers > 1)]


def test_child_error_carries_the_child_traceback(tmp_path, monkeypatch):
    test_pid = os.getpid()

    def broken():
        in_child(test_pid)
        return {}["missing"]

    force_workers(monkeypatch, 2)
    with pytest.raises(KeyError) as caught:
        run_jobs(cli.Outputs(tmp_path, "csv"), "suite", [("first", lambda: 1), ("second", broken)])
    (note,) = caught.value.__notes__
    assert note.startswith("Traceback") and 'return {}["missing"]' in note
