"""hazstep benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload fit-cox-100k --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
workloads are defined in ``workloads.py``.  Two fresh worker processes
(``worker.py``) run one after the other; each sets up (imports, generates
the inputs from the seed, writes the CSV, runs one warm-up operation) and
then times operations for half of ``--seconds``.  Two, not more, because a
set-up costs a whole operation and the benchmark's run budget is tight.

Shared virtual machines change speed for minutes at a time: on a 2-vCPU
VM the same study cell took 3.0 s and 4.8 s a few minutes apart, with
nothing else running inside the VM.  So each worker also times a fixed
calibration kernel (``worker.calibration_kernel``, interpreter and numpy
work) after the warm-up and after every operation.  Each operation's time
is scaled by ``CALIBRATION_REF_S`` over the mean kernel time just before and
just after it, and a worker's set-up time by ``CALIBRATION_REF_S`` over its
median kernel time: they are seconds at the speed where the kernel takes
``CALIBRATION_REF_S``.  The unscaled wall
times and the kernel time are printed next to them.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``op_s_p50``: median scaled time of one operation over all workers;
- ``subjects_per_s``: input subjects per scaled second of operation time;
- ``peak_rss_mb``: median over the workers of their peak resident memory
  (``getrusage``; each worker is a fresh process running the workload);
- ``setup_s``: median scaled set-up time of the workers.

With ``--trace 1`` untraced and traced operations alternate and the last
line reports the per-layer metrics of ``tracer.py`` (medians over the traced
operations, wall clock) and ``trace.overhead_s``, the traced minus the
untraced median wall time of an operation.

Every operation must succeed and write artifacts byte-identical to the run's
first operation; once per run the parent re-fits the input through the
library and compares (``workloads.py``).  The error rate, failed over
attempted operations and run checks, is printed with the other metrics and
carried by the ``attempted``/``failed`` fields of the last line.  Any failure
makes the command exit 1.  ``--out FILE`` also writes the full results
(environment, sample counts, fingerprints, per-operation data) as JSON.
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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
RUN_DEADLINE_S = 150.0  # workers; the run check and report follow
# reference time of worker.calibration_kernel: about its median on a busy
# 2-vCPU VM, so scaled times there read close to wall times
CALIBRATION_REF_S = 0.5
# pinned before numpy loads anywhere: one thread per process on a small box
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def metric_units(trace: int) -> dict:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workers(args, workdir: Path, deadline: float) -> tuple[list, list]:
    """Run the workers one after the other; return their results and errors."""
    results, errors = [], []
    for k in range(WORKERS):
        wdir = workdir / f"w{k}"
        wdir.mkdir()
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--share", repr(args.seconds / WORKERS), "--trace", str(args.trace),
            "--dir", str(wdir),
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            errors.append(f"worker {k}: timed out")
            break
        if proc.returncode != 0:
            errors.append(f"worker {k}: exit code {proc.returncode}")
            continue
        result = json.loads((wdir / "result.json").read_text())
        result["dir"] = wdir
        results.append(result)
    return results, errors


def median(values):
    return statistics.median(values) if values else None


def summarize(args, results, errors, check_problems) -> dict:
    """Failures, counts and the metrics of this run's mode."""
    ops = [op for r in results for op in r["ops"]]
    reference = ops[0]["fingerprint"] if ops else None
    failures = list(errors)
    for op in ops:
        if op["error"] is not None:
            failures.append(f"operation failed: {op['error']}")
        elif op["fingerprint"] != reference:
            failures.append("artifacts differ from the run's first operation")
        op["ok"] = op["error"] is None and op["fingerprint"] == reference
    inputs = {r["inputs_sha256"] for r in results}
    if len(inputs) > 1:
        check_problems = check_problems + ["workers generated different inputs from one seed"]
    # attempts: operations (warm-ups included), lost workers and the run check
    attempted = len(ops) + len(errors) + 1
    failed = len(failures) + bool(check_problems)
    failures += check_problems

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "fingerprint": reference,
        "inputs_sha256": inputs.pop() if len(inputs) == 1 else None,
        "workers": [{k: v for k, v in r.items() if k != "dir"} for r in results],
    }

    # Wall seconds of the good timed operations, and the same scaled by the
    # host's speed around each: kernel k of a worker ran right after its op k.
    wall, scaled, traced, setups = [], [], [], []
    for r in results:
        kernel = r["calibration_s"]
        setups.append(r["setup"]["setup_s"] * CALIBRATION_REF_S / median(kernel))
        for k, op in enumerate(r["ops"]):
            if not op["ok"] or op.get("warmup"):
                continue
            if op["traced"]:
                traced.append(op)
                continue
            wall.append(op["seconds"])
            scaled.append(op["seconds"] * CALIBRATION_REF_S / ((kernel[k - 1] + kernel[k]) / 2))
    calibration = median([c for r in results for c in r["calibration_s"]])
    setup_wall = median([r["setup"]["setup_s"] for r in results])
    summary["raw"] = {
        "op_wall_s_p50": median(wall),
        "setup_wall_s": setup_wall,
        "calibration_s_p50": calibration,
    }
    if args.trace == 0 and wall:
        from workloads import WORKLOADS

        summary["metrics"] = {
            "op_s_p50": median(scaled),
            "subjects_per_s": WORKLOADS[args.workload].subjects * len(scaled) / sum(scaled),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
            "setup_s": median(setups),
        }
        summary["samples"] = {
            "op_s_p50": len(scaled),
            "subjects_per_s": len(scaled),
            "peak_rss_mb": len(results),
            "setup_s": len(results),
        }
    elif args.trace == 1 and wall and traced:
        metrics = {}
        for name in metric_units(1):
            if name == "trace.overhead_s":
                metrics[name] = median([op["seconds"] for op in traced]) - median(wall)
            else:
                metrics[name] = median([op["layers"].get(name, 0) for op in traced])
        summary["metrics"] = metrics
        summary["samples"] = {"traced": len(traced), "untraced": len(wall)}
    return summary


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workers": WORKERS,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full results here")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "hazstep" / "__init__.py").is_file():
        print(f"no hazstep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        results, errors = run_workers(args, workdir, deadline)
        check_problems = ["no worker finished"]
        if results:
            workload = WORKLOADS[args.workload]
            wdir = results[0]["dir"]
            try:
                check_problems = workload.check_run(
                    workload.context(args.seed, wdir), wdir / "warmup"
                )
            except Exception:  # noqa: BLE001 - a failed check is reported, not raised
                check_problems = [f"run check raised:\n{traceback.format_exc(limit=3)}"]
        summary = summarize(args, results, errors, check_problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    summary["environment"] = environment(args.seed)

    metrics = summary.get("metrics")
    if metrics is None:
        for line in summary["failures"]:
            print(f"FAILED: {line}", file=sys.stderr)
        print("no successful operation to measure", file=sys.stderr)
        return 1
    units = metric_units(args.trace)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {summary['samples']}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    for name, value in summary["raw"].items():
        print(f"  {name:<40} {value:.6g} s (wall clock, not speed-corrected)")
    print(f"  {'error_rate':<40} {summary['error_rate']:.6g} "
          f"({summary['failed']} failed of {summary['attempted']} attempted)")
    print(f"  {'fingerprint':<40} sha256:{summary['fingerprint']}")
    print(f"  environment {json.dumps(summary['environment'])}")
    for line in summary["failures"]:
        print(f"FAILED: {line}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, default=str) + "\n")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
