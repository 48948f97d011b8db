"""Every workload once at a seed the reference was not recorded at.

    python3 -m pytest bench/test_heldout.py      # about a minute

The seed is the CLI's default, 20250801, outside the recorded seeds
0 .. run.SEEDS-1.  The gaussian MC, the predsel selections and the perrin
coverage depend on it; the perrin domains and every other pinned output
do not.  Every check must pass and every seed-independent pin must hold.
"""

import json

import pytest

import run

HELD_OUT_SEED = 20250801


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_at_held_out_seed(name):
    assert HELD_OUT_SEED >= run.SEEDS  # not a recorded seed
    reference = json.loads((run.BENCH / "reference.json").read_text(encoding="utf-8"))[name]
    run.WORK.mkdir(exist_ok=True)
    run_id = f"heldout-{name}"
    config = {**run.WORKLOADS[name], "seed": HELD_OUT_SEED}
    result = run.iterate(config, run.WORK / run_id, False, run_id)
    counts = run.judge(result, reference, {"pinned": {}, "failing": []})
    assert result["exit_code"] == 0
    assert counts["failed"] == 0, result["checks"]
    assert counts["matched"] == counts["pinned"] > 0
