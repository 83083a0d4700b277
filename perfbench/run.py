"""falva benchmark: CLI subcommands timed end to end, layers from a traced run.

    python3 perfbench/run.py --workload field2d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop in one process: one job at a time,
no threads, ``falva.cli.main(argv)`` called in-process with its CSV written
to a scratch directory.  A job's outputs are checked outside the timed
region.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  ``--workload all`` runs every workload,
each in its own process.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one job at a time: no BLAS threads either.  Set before numpy
# is imported; a value already in the environment is kept and recorded.
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS")
BLAS_DEFAULTED = [k for k in BLAS_VARIABLES if k not in os.environ]
for _name in BLAS_DEFAULTED:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_EVERY_S = 1.5  # at most one set-up process per this much of the run
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import falva.cli; "
              "falva.cli._build_parser(); print('ready', flush=True)")

# name -> unit.  The JSON line carries the gated metrics of BENCHMARK.json;
# the table also shows the raw wall times, the calibration and fail_ratio
# (which is 0 on a correct run, and the JSON has attempted and failed).
END_TO_END = {"setup_s": "s", "job_cal.p50": "cal", "jobs_per_cal": "1/cal",
              "peak_rss_mb": "MB"}
TABLE_ONLY = {"job_s.p50": "s", "jobs_per_s": "1/s", "cal_s": "s",
              "fail_ratio": "ratio"}
PER_LAYER = {
    "cli.self_s": "s", "cli.csv_bytes": "B", "cli.evaluate.calls": "count",
    "fracops.axis_cresson.s": "s", "fracops.axis_cresson.calls": "count",
    "fracops.lines": "count", "fracops.line_nodes": "count",
    "exprdsl.parse.calls": "count",
    "exprdsl.evaluate.s": "s", "exprdsl.evaluate.calls": "count",
    "exprdsl.evaluate.points": "count",
    "exprdsl.partial.s": "s", "exprdsl.partial.calls": "count",
    "exprdsl.partial.points": "count",
    "exprdsl.second_partials.s": "s", "exprdsl.second_partials.calls": "count",
    "exprdsl.second_partials.points": "count",
    "numcore.ode_step_rk4.self_s": "s", "numcore.ode_step_rk4.calls": "count",
    "numcore.find_root.evals": "count",
    "euler.bvp.integrations": "count", "euler.bvp.self_s": "s",
    "euler.minimize.iterations": "count", "euler.minimize.self_s": "s",
    "euler.residual.self_s": "s", "action.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.cal_s": "s",
    "euler.probe.failed": "count",
}


def import_falva():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not (SRC / "falva" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no falva sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import falva
    import falva.cli
    if Path(falva.__file__).resolve().parent != SRC / "falva":
        raise SystemExit(f"perfbench: falva imported from {falva.__file__}")
    return falva


def unset_falva_environment() -> list:
    names = sorted(k for k in os.environ if k.startswith("FALVA_"))
    for k in names:
        del os.environ[k]
    return names


def machine_facts(seed, falva_unset) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
            "blas_threads_set_by_benchmark": BLAS_DEFAULTED,
            "seed": seed, "falva_env_unset": falva_unset}


def calibration_s() -> float:
    """Wall time of a fixed piece of work that does not touch falva: an
    interpreter loop and small-array numpy arithmetic.  The host's speed
    drifts by tens of percent over minutes and this work drifts with it;
    NOTES.md has the measurements."""
    t0 = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i
    x = y = np.ones(32)
    for _ in range(8_000):
        x = x * y + y
    return time.perf_counter() - t0


def setup_once() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    falva.cli and built the parser."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit("perfbench: set-up process failed")
    return seconds


class SetupSampler:
    """Set-up times sampled over the whole run: one set-up process before a
    CLI call whenever SETUP_EVERY_S seconds have passed since the last.  The
    host's speed changes in phases, and a batch of set-ups in a row falls
    into a single phase."""

    def __init__(self):
        self.times = []
        self._last = -float("inf")

    def before_call(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.times.append(setup_once())
            self._last = time.perf_counter()


class Job:
    """One job: its CLI calls, their wall times and their output files."""

    def __init__(self, cli_main, scratch: Path, setup=None):
        self.cli_main = cli_main
        self.scratch = scratch
        self.setup = setup
        self.outputs = {}
        self.errors = []
        self.call_seconds = []
        self.calibrations = []  # before each call, and once after the last

    @property
    def seconds(self) -> float:
        return sum(self.call_seconds)

    def cal_seconds(self) -> float:
        """Job time in calibration units: each call divided by the mean of
        the calibrations just before and just after it."""
        c = self.calibrations
        return sum(dt / (0.5 * (a + b))
                   for dt, a, b in zip(self.call_seconds, c, c[1:]))

    def call(self, argv, out_name):
        """Run one CLI call; return its output bytes, or None if it failed."""
        out = self.scratch / out_name
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        err = io.StringIO()
        if self.setup is not None:
            self.setup.before_call()
        self.calibrations.append(calibration_s())
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                status = self.cli_main(argv + ["--out", str(out)])
        except Exception as exc:  # a crash is a failed job, not a failed run
            status = f"{type(exc).__name__}: {exc}"
        self.call_seconds.append(time.perf_counter() - t0)
        if "FALVA-ERR" in err.getvalue() or status != 0:
            self.errors.append(f"{argv[0]} exit {status}: "
                               f"{err.getvalue().strip()[-300:]}")
            return None
        try:
            self.outputs[out_name] = out.read_bytes()
        except OSError as exc:
            self.errors.append(f"{argv[0]}: {exc}")
            return None
        return self.outputs[out_name]


def run_jobs(workload, cli_main, scratch, seconds, tracer=None, setup=None):
    """Closed loop: start another job while at least half of it, at the last
    job's length, would fall within ``seconds``; at least one job.  Returns
    one record per job."""
    records = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        job = Job(cli_main, scratch, setup)
        workload.run(job.call)
        job.calibrations.append(calibration_s())
        layers = tracer.reset() if tracer is not None else None
        outputs = job.outputs
        records.append({
            "seconds": job.seconds,
            "cal_seconds": job.cal_seconds(),
            "errors": job.errors,
            "digest": {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()},
            "outputs": outputs if not records else None,
            "csv_bytes": sum(len(v) for v in outputs.values()),
            "iterations": sum(_comment_int(v, "iterations") for v in outputs.values()),
            "layers": layers,
        })
        elapsed = time.perf_counter() - start
        if elapsed + job.seconds / 2 > seconds:
            return records


def _comment_int(data: bytes, key: str) -> int:
    prefix = f"# {key}=".encode()
    for line in data[:4096].split(b"\n"):
        if line.startswith(prefix):
            return int(line[len(prefix):])
    return 0


def count_failures(workload, falva, records) -> tuple:
    """Check the first job's outputs in full; every later job must repeat
    them byte for byte (the CLI is deterministic).  Returns (failed,
    messages)."""
    reference = records[0]
    messages = list(reference["errors"])
    if not messages:
        try:
            messages += workload.check(falva, reference["outputs"])
        except Exception as exc:  # malformed output is a failed check
            messages.append(f"check raised {type(exc).__name__}: {exc}")
    reference_failed = bool(messages)
    failed = int(reference_failed)
    for i, rec in enumerate(records[1:], start=1):
        differs = rec["errors"] or rec["digest"] != reference["digest"]
        if differs:
            messages.append(f"job {i}: " + ("; ".join(rec["errors"])
                                            or "output differs from job 0"))
        failed += 1 if differs or reference_failed else 0
    return failed, messages


def _calibration(records) -> float:
    return statistics.median(r["seconds"] / r["cal_seconds"] for r in records)


def end_to_end(records, setup_times) -> dict:
    times = [r["seconds"] for r in records]
    cal_times = [r["cal_seconds"] for r in records]
    return {
        "setup_s": statistics.median(setup_times),
        "job_cal.p50": statistics.median(cal_times),
        "jobs_per_cal": len(cal_times) / sum(cal_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_s.p50": statistics.median(times),
        "jobs_per_s": len(times) / sum(times),
        "cal_s": _calibration(records),
    }


def per_layer(traced, untraced, probe_failed) -> dict:
    per_job = [dict(r["layers"], **{"cli.csv_bytes": r["csv_bytes"],
                                    "euler.minimize.iterations": r["iterations"]})
               for r in traced]
    keys = {k for job in per_job for k in job}
    med = {k: statistics.median(job.get(k, 0.0) for job in per_job) for k in keys}
    out = {name: med.get(name, 0.0) if unit == "s" else int(med.get(name, 0))
           for name, unit in PER_LAYER.items()}
    lines = med.get("fracops.lines", 0)
    out["fracops.line_nodes"] = round(med["fracops.line_nodes_total"] / lines) \
        if lines else 0
    out["trace.overhead_ratio"] = (
        statistics.median(r["cal_seconds"] for r in traced)
        / statistics.median(r["cal_seconds"] for r in untraced))
    out["trace.cal_s"] = _calibration(traced)
    out["euler.probe.failed"] = probe_failed
    return out


def run_probes(cli_main, scratch) -> tuple:
    failed, notes = 0, []
    for label, argv in workloads.PROBES:
        job = Job(cli_main, scratch)
        job.call(argv, "probe.csv")
        failed += 1 if job.errors else 0
        notes.append(f"{label}: {'fails' if job.errors else 'passes'}")
    return failed, notes


def run_workload(name, seed, seconds, trace, tiny=False, cli_main=None) -> dict:
    """Run one workload in this process and return the result object."""
    falva = import_falva()
    cli_main = cli_main or falva.cli.main
    workload = workloads.WORKLOADS[name](seed, tiny)
    scratch = SCRATCH / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    notes = []
    try:
        # warm-up at the smoke-test size: lazy imports and first-call costs
        workloads.WORKLOADS[name](seed, tiny=True).run(Job(cli_main, scratch).call)
        if trace:
            untraced = run_jobs(workload, cli_main, scratch, seconds / 2)
            with Tracer() as tracer:
                traced = run_jobs(workload, tracer.span("cli", cli_main), scratch,
                                  seconds / 2, tracer)
            probe_failed, notes = run_probes(cli_main, scratch)
            records = untraced + traced
            metrics = per_layer(traced, untraced, probe_failed)
            units = PER_LAYER
            counts = {"traced jobs": len(traced), "untraced jobs": len(untraced)}
        else:
            setup = SetupSampler()
            records = run_jobs(workload, cli_main, scratch, seconds, setup=setup)
            setup_times = setup.times
            metrics = end_to_end(records, setup_times)
            units = {**END_TO_END, **TABLE_ONLY}
            counts = {"jobs": len(records), "set-up processes": len(setup_times)}
        failed, messages = count_failures(workload, falva, records)
        if not trace:
            metrics["fail_ratio"] = failed / len(records)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return {"workload": name, "metrics": metrics, "units": units,
            "attempted": len(records), "failed": failed, "messages": messages,
            "counts": counts, "notes": notes}


def print_result(res, facts) -> None:
    name = res["workload"]
    print(f"{name}: " + ", ".join(f"{v} {k}" for k, v in res["counts"].items())
          + f"; {res['failed']} of {res['attempted']} failed")
    for key, value in res["metrics"].items():
        print(f"  {name:<11} {key:<32} {value:>16.6g} {res['units'][key]}")
    for note in res["notes"]:
        print(f"  probe {note}")
    for msg in res["messages"][:20]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print("machine " + json.dumps(facts, sort_keys=True))


def result_json(res) -> dict:
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": res["units"][k]}
                        for k, v in res["metrics"].items() if k not in TABLE_ONLY}}


def run_all(args) -> int:
    """Every workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    falva_unset = unset_falva_environment()
    import_falva()
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_result(res, machine_facts(args.seed, falva_unset))
    print(json.dumps(result_json(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
