"""One fresh benchmark process: set up, warm up, time operations, report.

    python3 perfbench/worker.py --workload NAME --seed N --share SECONDS \
        --trace 0|1 --dir WORKDIR

Set-up is the imports, input generation and CSV writing, and one warm-up
operation, which is excluded from the timed operations; the process's peak
resident memory is read right after it.  Operations then run until their
measured time reaches ``--share`` seconds, each followed by the calibration
kernel.  With ``--trace 1`` untraced and traced operations alternate.  Every
operation writes into its own directory; its artifacts are fingerprinted
outside the timed region.  The measurements go to ``WORKDIR/result.json``.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - imports are part of the timed set-up
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(paths) -> str:
    """sha256 over the names and bytes of the given files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    About half is heap and float work in the interpreter, like the DP solver
    and merge path, and half numpy sampling, cumulative sums and sorts, like
    the bootstrap; it allocates a few MB at most.
    """
    import heapq

    import numpy as np

    t0 = time.perf_counter()
    x, acc = 0.5, [0.0] * 1024
    for _ in range(14):
        heap = []
        for i in range(10_000):
            x = (x * 1.0000001 + 0.37) % 1.0
            heapq.heappush(heap, (x, i))
            acc[i & 1023] += x
        while heap:
            heapq.heappop(heap)
    rng = np.random.default_rng(0)
    for _ in range(56):
        a = rng.standard_normal(100_000)
        np.max(np.abs(np.cumsum(a)))
        np.sort(a)
    return time.perf_counter() - t0


def run_op(workload, ctx, outdir: Path, tracer=None) -> dict:
    """One operation: time it, validate it, fingerprint its artifacts."""
    from workloads import OpFailed

    outdir.mkdir()
    record = {"traced": tracer is not None, "error": None}
    try:
        # the CLI prints what it wrote; keep this process's stdout clean
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                value = workload.run(ctx, outdir)
                record["seconds"] = time.perf_counter() - t0
        workload.finish(ctx, outdir, value)
    except OpFailed as exc:
        record["error"] = str(exc)
    except Exception:  # noqa: BLE001 - the benchmark records every failure
        record["error"] = traceback.format_exc(limit=3)
    record["fingerprint"] = fingerprint(p for p in outdir.iterdir() if p.is_file())
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.reset()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.dir)

    sys.path.insert(0, str(ROOT / "src"))
    import hazstep

    if Path(hazstep.__file__).resolve().parent != ROOT / "src" / "hazstep":
        print(f"hazstep imported from {hazstep.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t_imported = time.perf_counter()
    ctx = workload.prepare(args.seed, workdir)
    t_inputs = time.perf_counter()
    ops = [run_op(workload, ctx, workdir / "warmup")]
    t_warm = time.perf_counter()
    ops[0]["warmup"] = True
    # read before the calibration kernel first runs, so it cannot raise the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = [calibration_kernel()]

    tracer = Tracer() if args.trace else None
    measured = 0.0
    while measured < args.share:
        for op_tracer in (None, tracer) if tracer else (None,):
            name = f"op{len(ops)}"
            op = run_op(workload, ctx, workdir / name, op_tracer)
            calibration.append(calibration_kernel())
            ops.append(op)
            measured += op.get("seconds", 0.0)
            if "seconds" not in op:
                measured = args.share  # an operation that cannot run ends the loop
    for path in workdir.glob("op*"):
        shutil.rmtree(path)

    result = {
        "setup": {
            "import_s": t_imported - T_START,
            "inputs_s": t_inputs - t_imported,
            "warmup_s": t_warm - t_inputs,
            "setup_s": t_warm - T_START,
        },
        "inputs_sha256": fingerprint(ctx["inputs"]) if ctx["inputs"] else None,
        "ops": ops,
        "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb,
    }
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
