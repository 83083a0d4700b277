"""Smoke test of the benchmark itself, at the tiny sizes:

    python3 -m pytest perfbench/test_smoke.py

Every workload must run clean, and a corrupted CLI output must be counted
as a failed job.
"""

import json
import re
from pathlib import Path

import pytest

import run
import workloads

SEED = 5


def corrupting(edit, on_call=None):
    """A CLI entry point that rewrites the output file after the real one
    ran, on every call or only on call number ``on_call`` (warm-up
    included)."""
    falva = run.import_falva()
    calls = []

    def cli_main(argv):
        status = falva.cli.main(argv)
        calls.append(argv)
        if on_call is None or len(calls) == on_call:
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(edit(out.read_text()), encoding="utf-8")
        return status

    return cli_main


def alter_digit(text: str) -> str:
    """Change the leading digit of residual_re on the first included row."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) == 6 and cells[5] == "0":
            m = re.search(r"\d", cells[3])
            d = str((int(m.group()) + 1) % 10)
            cells[3] = cells[3][:m.start()] + d + cells[3][m.end():]
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError("no included row to corrupt")


def wrong_sup_norm(text: str) -> str:
    return re.sub(r"# sup_norm=(\S+)",
                  lambda m: f"# sup_norm={float(m.group(1)) * 1.5!r}", text)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name):
    res = run.run_workload(name, SEED, seconds=0, trace=0, tiny=True)
    assert res["failed"] == 0, res["messages"]
    assert res["attempted"] == 1
    assert set(res["metrics"]) == set(run.END_TO_END) | set(run.TABLE_ONLY)
    assert all(v > 0 for k, v in res["metrics"].items() if k != "fail_ratio")


def test_traced_run_reports_every_layer():
    res = run.run_workload("line1d", SEED, seconds=0, trace=1, tiny=True)
    assert res["failed"] == 0, res["messages"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert res["metrics"]["fracops.axis_cresson.calls"] == 9
    assert 0 <= res["metrics"]["euler.probe.failed"] <= len(workloads.PROBES)


@pytest.mark.parametrize("edit", [alter_digit, wrong_sup_norm])
def test_corrupted_output_fails_every_job(edit):
    res = run.run_workload("field2d", SEED, seconds=0.5, trace=0, tiny=True,
                           cli_main=corrupting(edit))
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["fail_ratio"] == 1.0


def test_one_corrupted_job_among_clean_ones():
    # call 1 is the warm-up, call 2 the checked reference job; the run is
    # long enough for more jobs after the first set-up process
    res = run.run_workload("field2d", SEED, seconds=1.5, trace=0, tiny=True,
                           cli_main=corrupting(alter_digit, on_call=3))
    assert res["attempted"] > 2
    assert res["failed"] == 1
    assert any("differs" in m for m in res["messages"])


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
