"""Tests of the benchmark itself: span arithmetic, wrapping, output checks.

    python3 -m pytest perfbench -q
"""

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hazstep.tuning  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from worker import fingerprint  # noqa: E402
from workloads import FitCox, Multistate  # noqa: E402


def _span(name, start, end, parent=None):
    span = Span(name, parent, start, end)
    if parent is not None:
        parent.children.append(span)
    return span


def test_self_time_of_synthetic_tree():
    root = _span("cli", 0.0, 10.0)
    a = _span("tuning.pilot_lambda", 1.0, 4.0, root)
    b = _span("flsa.flsa_solve", 3.0, 6.0, root)  # overlaps a: the union counts once
    c = _span("flsa.flsa_solve", 8.0, 12.0, root)  # runs past the root: clipped
    d = _span("flsa.flsa_solve", 1.5, 2.0, a)  # grandchild: not the root's business
    e = _span("flsa.flsa_solve", 2.5, 3.0, a)
    assert root.self_time() == pytest.approx(10.0 - 5.0 - 2.0)
    assert a.self_time() == pytest.approx(3.0 - 1.0)
    assert b.self_time() == pytest.approx(3.0)

    tracer = Tracer(wraps=())
    tracer.spans = [d, e, a, b, c, root]
    m = tracer.metrics()
    assert m["cli.s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["flsa.flsa_solve.calls"] == 4
    assert m["flsa.flsa_solve.s"] == pytest.approx(0.5 + 0.5 + 3.0 + 4.0)
    assert m["tuning.pilot_lambda.solves"] == 2  # direct children only


def test_wrapped_functions_return_bit_identical_results():
    rng = np.random.default_rng(3)
    y = np.concatenate((np.full(300, 4.0), np.full(300, 1.0))) + rng.standard_normal(600)
    config = hazstep.tuning.TuningConfig(l_boot=50, seed=5)
    original = hazstep.tuning.flsa_solve
    plain = hazstep.tuning.bootstrap_lambda(y, config)

    tracer = Tracer()
    with tracer.installed():
        assert hazstep.tuning.flsa_solve is not original
        traced = hazstep.tuning.bootstrap_lambda(y, config)
    assert hazstep.tuning.flsa_solve is original

    assert traced.lam == plain.lam and traced.lambda0 == plain.lambda0
    assert traced.u_boot.tobytes() == plain.u_boot.tobytes()
    assert traced.residuals.tobytes() == plain.residuals.tobytes()
    m = tracer.metrics()
    assert m["tuning.pilot_lambda.calls"] == 1
    assert m["flsa.flsa_path.calls"] == 1
    assert m["flsa.flsa_solve.calls"] == m["tuning.pilot_lambda.solves"] + 1
    assert m["flsa.flsa_solve.points"] == 600 * m["flsa.flsa_solve.calls"]


def _worker(setup_s, op_seconds, calibration_s, fingerprints):
    ops = [{"traced": False, "error": None, "fingerprint": f, "seconds": t}
           for t, f in zip(op_seconds, fingerprints)]
    ops[0]["warmup"] = True
    return {"setup": {"setup_s": setup_s}, "ops": ops, "calibration_s": calibration_s,
            "peak_rss_mb": 100.0, "inputs_sha256": None}


def test_summary_scales_by_host_speed_and_counts_mismatches():
    args = argparse.Namespace(workload="study-b2-1k", seed=1, trace=0)
    ref = run.CALIBRATION_REF_S
    # kernel k runs right after op k (op 0 is the warm-up)
    first = _worker(4.0, [9.0, 2.0, 2.2], [ref, ref, ref], ["a", "a", "a"])
    second = _worker(6.0, [9.0, 3.0, 3.3], [ref, 2 * ref, 3 * ref], ["a", "a", "b"])
    summary = run.summarize(args, [first, second], [], [])
    m = summary["metrics"]
    # 3 s between kernels at 1x and 2x their reference time counts as 2 s;
    # warm-ups and the op with other artifacts are not timed
    assert m["op_s_p50"] == pytest.approx(2.0)
    assert m["setup_s"] == pytest.approx((4.0 + 6.0 / 2) / 2)
    assert m["subjects_per_s"] == pytest.approx(200_000 * 3 / (2.0 + 2.2 + 2.0))
    assert summary["raw"]["op_wall_s_p50"] == pytest.approx(2.2)
    assert (summary["attempted"], summary["failed"]) == (7, 1)
    assert summary["failures"] == ["artifacts differ from the run's first operation"]


def _run_op(workload, seed, tmp_path):
    ctx = workload.prepare(seed, tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    workload.finish(ctx, outdir, workload.run(ctx, outdir))
    return ctx, outdir


def test_fit_check_rejects_corrupted_hazard_json(tmp_path):
    workload = FitCox("B1", 2000, l_boot=20)
    ctx, outdir = _run_op(workload, 7, tmp_path)
    assert workload.check_run(ctx, outdir) == []

    path = outdir / "hazard.json"
    before = fingerprint([path])
    text = path.read_text()
    i = text.index('"lambda": ') + len('"lambda": ')
    path.write_text(text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:])
    assert fingerprint([path]) != before
    problems = workload.check_run(ctx, outdir)
    assert problems == ["hazard.json: differs from the library re-fit of the same input"]


def test_multistate_check_rejects_increasing_survival_curve(tmp_path):
    workload = Multistate(1000, ("--L", "20"))
    ctx, outdir = _run_op(workload, 7, tmp_path)
    assert workload.check_run(ctx, outdir) == []

    path = outdir / "survival_curves.csv"
    lines = path.read_text().splitlines()
    t, pfs, os_ = lines[-1].split(",")
    lines[-1] = ",".join((t, "0.999", os_))
    path.write_text("\n".join(lines) + "\n")
    problems = workload.check_run(ctx, outdir)
    assert len(problems) == 1 and problems[0].startswith("survival_curves.csv: ValidationError")
