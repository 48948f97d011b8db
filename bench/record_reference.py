"""Record bench/reference.json, the outputs and verdicts the benchmark pins.

    PYTHONPATH=src python3 bench/record_reference.py

Runs every workload at every config seed the benchmark uses (run.SEEDS of
them, about 12 minutes on 2 cores) and records, per workload, the check
names and the seed-independent pins (output digests and summary
verdicts), and per seed the seed-dependent pins (the predsel selections)
and the checks that fail at that seed.  Record only from a commit whose
outputs are known good, and declare any re-recording in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil

from run import BENCH, SEEDS, WORK, WORKLOADS
from worker import SEEDED, pinned_outputs


def run_once(name: str, seed: int) -> tuple:
    """(check name -> passed, pinned outputs) of one in-process run."""
    from convlab import cli

    out = WORK / f"record-{name}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    config = cli.validate_config(json.dumps({**WORKLOADS[name], "seed": seed}))
    try:
        outcome = cli.run(config, out_dir=str(out))
        checks = {n: c["pass"] for n, c in outcome.summary["checks"].items()}
        return checks, pinned_outputs(str(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> None:
    WORK.mkdir(exist_ok=True)
    reference = {}
    for name in WORKLOADS:
        entry = {"seeds": {}}
        for seed in range(SEEDS):
            checks, pinned = run_once(name, seed)
            fixed = {k: v for k, v in pinned.items() if not k.startswith(SEEDED)}
            entry.setdefault("checks", list(checks))
            entry.setdefault("pinned", fixed)
            if list(checks) != entry["checks"] or fixed != entry["pinned"]:
                raise SystemExit(f"{name} seed {seed}: seed-independent outputs moved")
            entry["seeds"][str(seed)] = {
                "pinned": {k: v for k, v in pinned.items() if k not in fixed},
                "failing": [n for n, ok in checks.items() if not ok],
            }
            print(f"{name} seed {seed}: failing {entry['seeds'][str(seed)]['failing']}",
                  flush=True)
        reference[name] = entry
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
