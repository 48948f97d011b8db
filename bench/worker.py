"""One benchmark iteration in a fresh interpreter.

    python3 worker.py setup '<config json>'
        Import convlab.cli, validate the config, print the perf_counter
        reading (CLOCK_MONOTONIC, shared with the parent) as the last line.

    python3 worker.py run '<job json>'
        Run cli.run on the job's config once, optionally traced, and print
        one JSON result as the last line of standard output.

Only the stdlib is imported before convlab, so the set-up reading holds
what a user's process pays: interpreter start, package import, config
validation.  Untraced runs sample the machine's speed while they run
(see speed.py); traced runs do not, so that their spans hold only
program time.
"""

import json
import sys
import time


def setup(config_text: str) -> None:
    from convlab import cli

    cli.validate_config(config_text)
    print(time.perf_counter())


def run(job: dict) -> None:
    import contextlib
    import traceback

    from convlab import cli

    config = cli.validate_config(json.dumps(job["config"]))
    tracer = probe = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    else:
        import speed

        probe = speed.Probe()
    exit_code = None
    checks = {}
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            outcome = cli.run(config, out_dir=job["out"])
            exit_code = outcome.exit_code
            checks = {name: c["pass"] for name, c in outcome.summary.get("checks", {}).items()}
        except Exception:  # reported as a failed iteration, with its traceback
            traceback.print_exc()
        wall_s = time.perf_counter() - start
    peak_rss_mb = peak_own_rss_mb()
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "checks": checks,
        "pinned": pinned_outputs(job["out"]) if exit_code is not None else {},
        "fingerprint": _fingerprint(),
    }
    if probe is not None:
        result["speed"] = probe.samples
        result["probe_s"] = probe.busy
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.write(job["spans"])
    print(json.dumps(result))


def peak_own_rss_mb() -> float:
    """Peak resident set, less the file-backed and shared pages resident
    now: mostly the shared libraries' code.  How many library pages a
    process has resident follows the page cache, which other processes
    fill and empty (predsel-gaussian's ru_maxrss moved between 95.7 and
    107.8 MiB from one minute to the next), so only the memory the
    program allocated itself is reported."""
    kb = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "RssFile", "RssShmem"):
                kb[key] = int(value.split()[0])
    return (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024.0


# Keys under this prefix depend on the seed; all others do not.
SEEDED = "selections/"


def pinned_outputs(out_dir: str) -> dict:
    """The outputs no planned change may alter.

    Floating-point columns that a planned numerics change moves on purpose
    (rss/aic/bic/true_risk in selection*.csv, MC estimates, the analytic
    level caps) are left out.
    """
    import csv
    import hashlib
    from pathlib import Path

    out = Path(out_dir)
    pinned = {}
    for path in sorted(out.glob("domain_*.csv")) + sorted(out.glob("scoresheet.json")):
        pinned[f"digest/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted(out.glob("selection*.csv")):
        with path.open(newline="", encoding="utf-8") as fh:
            picks = {row["rep"]: (row["selected_aic"], row["selected_bic"])
                     for row in csv.DictReader(fh)}
        text = json.dumps(sorted((int(rep), *sel) for rep, sel in picks.items()))
        pinned[f"{SEEDED}{path.name}"] = hashlib.sha256(text.encode()).hexdigest()
    summary_path = out / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        if "perrin" in summary:
            pinned["summary/perrin.pattern"] = summary["perrin"]["pattern"]
        if "gaussian" in summary:
            pinned["summary/gaussian.modes"] = {
                rule: {mode: report["pass"] for mode, report in modes.items()}
                for rule, modes in summary["gaussian"]["modes"].items()}
        if "lineworld" in summary:
            lw = summary["lineworld"]
            pinned["summary/lineworld.pointwise"] = lw["pointwise_by_stream"]
            pinned["summary/lineworld.razor"] = lw["razor_probe"]
            pinned["summary/lineworld.uniform"] = [
                [u["prescribed_length"], u["verdict"], u["replay_valid"]]
                for u in lw["uniform_refutations"]]
    return pinned


def _fingerprint() -> dict:
    import convlab
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "convlab": convlab.__version__,
        "convlab_path": convlab.__file__,
    }


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        run(json.loads(sys.argv[2]))
