"""convlab benchmark: batch workloads run end to end, one fresh child
process per iteration, as a closed loop with one client.

    python3 bench/run.py --workload perrin-default --seed 1 --seconds 20 --trace 0

Prints a report and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced child (see layers.py).  --workload all runs every
workload in turn and prints one such line per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"

# Each workload stresses a different layer; README.md says why.
WORKLOADS = {
    "perrin-default": {"experiment": "perrin", "check": True},
    "predsel-gaussian": {"experiment": ["gaussian", "predsel"], "check": True},
    "lineworld-deep": {"experiment": "lineworld", "check": True,
                       "lineworld": {"theta_step": 0.001, "horizon": 80}},
}

# The config seed is --seed modulo SEEDS: the reference holds every
# seed's verdicts and selections, so every run is judged in full.
SEEDS = 16
SETUP_REPS = 12
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "checks_passed": "share", "outputs_matched": "share"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "convlab" / "cli.py").is_file():
        print(f"error: no convlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = bench(name, args.seed, args.seconds, bool(args.trace), reference[name])
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CONVLAB_THREADS", None)  # one worker: the documented default
    # One BLAS thread too: on a small shared machine a second BLAS thread
    # adds as much noise to predsel's fits as it saves.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def worker(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def measure_setup(config_text: str, reps: int) -> list:
    """Fresh-interpreter set-up times, one spawn each.

    These stay at the machine's speed: interpreter start is mostly file
    reads and page faults, which the speed kernel does not track."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = worker("setup", config_text)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.splitlines()[-1]) - start)
    return samples


def iterate(config: dict, out: Path, traced: bool, run_id: str) -> dict:
    """One cli.run in a fresh child; a crash or timeout is a result too."""
    shutil.rmtree(out, ignore_errors=True)
    job = {"config": config, "out": str(out), "trace": traced, "run_id": run_id,
           "spans": str(WORK / f"{run_id}.spans.jsonl")}
    try:
        proc = worker("run", json.dumps(job))
        result = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        print(f"iteration {run_id} produced no result: {exc!r}", file=sys.stderr)
        return {"exit_code": None, "checks": {}, "pinned": {}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        result["exit_code"] = None
    return result


def judge(result: dict, entry: dict, seed_entry: dict) -> dict:
    """Counts for one iteration against the reference at its seed.

    A check is owed when it passes at the reference commit for this seed.
    A child that raises or dies passes none of its checks and matches
    none of its pins; one that exits 1 is judged by its check records.
    """
    ran = result["exit_code"] is not None
    checks = result["checks"] if ran else {}
    owed = [n for n in entry["checks"] if n not in seed_entry["failing"]]
    pinned = {**entry["pinned"], **seed_entry["pinned"]}
    return {
        "owed": len(owed),
        "held": sum(checks.get(n) is True for n in owed),
        "attempted": len(entry["checks"]),
        "failed": sum(checks.get(n) is not True for n in entry["checks"]),
        "pinned": len(pinned),
        "matched": sum(result["pinned"].get(k) == v for k, v in pinned.items()),
    }


def bench(name: str, seed: int, seconds: float, traced: bool, reference: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    config = {**WORKLOADS[name], "seed": seed % SEEDS}
    seed_entry = reference["seeds"][str(config["seed"])]
    # The first spawn fills the bytecode cache that every later user
    # process reuses, and is not timed.  The timed spawns are split
    # between the start and the end of the run, so that a slow spell of
    # the machine weighs on half of them at most.
    setup = measure_setup(json.dumps(config), 1 + SETUP_REPS // 2)[1:]

    # Closed loop: the next child starts when the previous one has ended,
    # and no child starts that the budget cannot fit.  A traced run
    # alternates untraced and traced children, so the overhead is
    # measured under the same conditions.
    plan = [False, True] if traced else [False]
    results = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in plan:
            run_id = f"{name}-seed{seed}-{len(results)}{'-traced' if mode else ''}"
            results.append((mode, iterate(config, WORK / run_id, mode, run_id)))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break
    setup += measure_setup(json.dumps(config), SETUP_REPS - SETUP_REPS // 2)

    tally = dict.fromkeys(("owed", "held", "attempted", "failed", "pinned", "matched"), 0)
    failed = 0
    for _, result in results:
        counts = judge(result, reference, seed_entry)
        for key, value in counts.items():
            tally[key] += value
        failed += (counts["held"], counts["matched"]) != (counts["owed"], counts["pinned"])
    # Only iterations that ran to an exit code are timed.
    plain = [r for mode, r in results if not mode and r["exit_code"] is not None]
    if not plain:
        raise BenchError(f"no iteration of {name} produced a measurement")
    # wall_s is reported at the reference speed (speed.py); the raw
    # readings stay in the record and the report.
    samples = {
        "wall_s": [speed.reference_time(r["wall_s"] - r["probe_s"], r["speed"])
                   for r in plain],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    end_to_end = {key: statistics.median(values) for key, values in samples.items()}
    end_to_end["checks_passed"] = tally["held"] / tally["owed"]
    end_to_end["outputs_matched"] = tally["matched"] / tally["pinned"]

    if traced:
        traced_runs = [r for mode, r in results if mode and r["exit_code"] is not None]
        if not traced_runs:
            raise BenchError(f"no traced iteration of {name} produced a measurement")
        layer_keys = traced_runs[0]["layers"]
        per_layer = {key: statistics.median(r["layers"][key] for r in traced_runs)
                     for key in layer_keys}
        # Both sides at the machine's speed: traced children run no probe.
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_runs)
            - statistics.median(r["wall_s"] - r["probe_s"] for r in plain))
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in sorted(per_layer.items())}
    else:
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in end_to_end.items()}

    report = {
        "workload": name, "config": config, "seed": seed, "seconds": seconds,
        "traced": traced, "samples": samples,
        "raw_wall_s": [r["wall_s"] for r in plain], "end_to_end": end_to_end,
        "checks_failed": tally["failed"] / tally["attempted"],
        "known_failing": seed_entry["failing"],
        "outputs_mismatched": 1.0 - end_to_end["outputs_matched"],
        "fingerprint": fingerprint(plain[0].get("fingerprint", {})),
        "iterations": results,
    }
    (WORK / f"{name}-seed{seed}{'-traced' if traced else ''}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report, metrics if traced else None)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "share" if key.endswith("_share") else "count"


def fingerprint(child: dict) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
        "CONVLAB_THREADS": "unset",
        "OPENBLAS_NUM_THREADS": "1",
        **child,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_report(report: dict, per_layer) -> None:
    e2e = report["end_to_end"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"config {json.dumps(report['config'])}")
    for key, values in report["samples"].items():
        print(f"  {key:<22} {e2e[key]:12.4f} {END_TO_END_UNITS[key]:<6}"
              f" median of {len(values)}, max {max(values):.4f}")
        if key == "wall_s":
            raw = report["raw_wall_s"]
            print(f"  {'  raw (machine speed)':<22} {statistics.median(raw):12.4f} s"
                  f"      max {max(raw):.4f}")
    for key in ("checks_passed", "checks_failed", "outputs_matched", "outputs_mismatched"):
        value = e2e[key] if key in e2e else report[key]
        print(f"  {key:<22} {value:12.4f} share")
    print(f"  checks failing at the reference commit for this seed: {report['known_failing']}")
    for key, metric in (per_layer or {}).items():
        print(f"  {key:<30} {metric['value']:14.4f} {metric['unit']}")
    print("  fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
