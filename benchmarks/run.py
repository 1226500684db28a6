"""quper benchmark: one workload, one closed-loop run, one JSON result line.

    python3 benchmarks/run.py --workload gip8_span --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; quper is imported from its ``src``.
With ``--trace 0`` the result carries every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` the run measures half of ``--seconds``
untraced and half traced, and the result carries every per-layer metric.
The line before the result is a report: run manifest, every call's answer
(best value and permutation), answer quality and missing spans.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
SOLVE_ROOTS = {"optimizer.quper_solve", "cli.span"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The speed of a shared host drifts, by up to 1.8x over tens of seconds on
# the 2-core machine this benchmark was defined on.  Every timing metric is
# therefore scaled, by a reference kernel measured next to it, to a host on
# which that kernel runs REFERENCE_OPS_PER_S (about that machine's usual
# speed).  The raw timings are in the report.
REFERENCE_OPS = 1000
REFERENCE_OPS_PER_S = 35_000.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "arguments": workload.args(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
    }


def reference_rate() -> float:
    """Operations per second of a fixed kernel of small numpy calls, like the
    gate applications that dominate quper's time, sharing no code with it."""
    import numpy as np

    a = np.ones((2, 2, 2, 8), dtype=complex)
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    t0 = time.perf_counter()
    for k in range(REFERENCE_OPS):
        a = np.moveaxis(np.tensordot(m, a, axes=([1], [k % 3])), 0, k % 3)
    return REFERENCE_OPS / (time.perf_counter() - t0)


def run_loop(workload, seconds, start, records, failures, span=None) -> int:
    """Closed loop with one caller: calls run back to back until ``seconds``
    have passed (at least one call), or until a call fails.  The reference
    kernel runs between calls; each call is scaled by the mean of the rates
    measured just before and just after it."""
    from checks import CheckError

    kwargs = {} if span is None else {"span": span}
    deadline = time.perf_counter() + seconds
    i = start
    before = reference_rate()
    while (i == start or time.perf_counter() < deadline) and not failures:
        try:
            record = workload.call(i, **kwargs)
        except CheckError as exc:
            failures.append({"call": i, "error": str(exc)})
        except Exception:  # an exception is a failed call; report it and stop
            failures.append({"call": i, "error": traceback.format_exc()})
        else:
            after = reference_rate()
            record["ref_rate"] = (before + after) / 2
            record["scaled_s"] = record["call_s"] * record["ref_rate"] / REFERENCE_OPS_PER_S
            records.append(record)
            before = after
        i += 1
    return i


def end_to_end(records, setup_scaled) -> dict:
    return {
        "setup_s": statistics.median(setup_scaled),
        "work_per_s": throughput(records),
        "call_s_p50": statistics.median(r["scaled_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def throughput(records, key="scaled_s") -> float:
    return sum(r["work"] for r in records) / sum(r[key] for r in records)


def quality(records, kind) -> dict:
    """Answer quality of the solves; 0 on the census, which solves nothing."""
    if kind != "solver":
        return dict.fromkeys(
            ("optimizer.solved_frac", "optimizer.gap_mean",
             "optimizer.beat_baseline_frac", "optimizer.iters_to_solution_p50"),
            0.0,
        )
    n = len(records)
    solved = [r["iters_to_solution"] for r in records if r["iters_to_solution"]]
    return {
        "optimizer.solved_frac": len(solved) / n,
        "optimizer.gap_mean": sum(
            (r["value"] - r["reference"]) / max(abs(r["reference"]), 1.0)
            for r in records
        ) / n,
        "optimizer.beat_baseline_frac": sum(
            r["value"] <= r["baseline_value"] for r in records
        ) / n,
        # Over the solved calls; solved_frac tells how many there were.
        "optimizer.iters_to_solution_p50": float(
            statistics.median(solved) if solved else 0.0
        ),
    }


def layer_metrics(tracer, expected, iters) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced calls.  A span this workload is
    expected to fire that never fired is missing: its metrics read -1.  A
    span off this workload's path reads 0."""
    solve = tracer.summary(SOLVE_ROOTS)
    base = tracer.summary({"optimizer.random_baseline"})
    missing = sorted(expected - set(solve) - set(base))

    def metric(span, fn, source=solve):
        if span in missing:
            return -1.0
        agg = source.get(span)
        return float(fn(agg)) if agg else 0.0

    solve_s = solve.get("optimizer.quper_solve", {}).get("total_s", 0.0)
    u, d, fd = "circuits.eval_unitary", "dsm.extract_dsm", "optimizer.fd_gradient"
    p, h, ro = "circuits.eval_permutation", "projection.hungarian", "projection.random_order"
    cost = "problems.cost"
    calls = lambda a: a["calls"]  # noqa: E731
    self_s = lambda a: a["self_s"]  # noqa: E731
    out = {
        f"{u}.calls": metric(u, calls),
        f"{u}.self_s": metric(u, self_s),
        f"{u}.us_per_call": metric(u, lambda a: 1e6 * a["self_s"] / a["calls"]),
        "circuits.ns_per_amp": metric(u, lambda a: 1e9 * a["self_s"] / a["amp_gates"]),
        f"{p}.calls": metric(p, calls),
        f"{p}.self_s": metric(p, self_s),
        f"{d}.calls": metric(d, calls),
        f"{d}.self_s": metric(d, self_s),
        f"{fd}.calls": metric(fd, calls),
        f"{fd}.total_s": metric(fd, lambda a: a["total_s"]),
        f"{fd}.share": metric(fd, lambda a: _div(a["total_s"], solve_s)),
        "optimizer.unitaries_per_iter": metric(u, lambda a: _div(a["calls"], iters)),
        "optimizer.loss_from_dsm.self_s": metric("optimizer.loss_from_dsm", self_s),
        "optimizer.adam_step.self_s": metric("optimizer.adam_step", self_s),
        "optimizer.embed_theta.calls": metric("optimizer.embed_theta", calls),
        "optimizer.random_baseline_s": metric(
            "optimizer.random_baseline", lambda a: a["total_s"], base
        ),
        "optimizer.driver_self_s": metric("optimizer.quper_solve", self_s),
        f"{h}.calls": metric(h, calls),
        f"{h}.self_s": metric(h, self_s),
        f"{ro}.calls": metric(ro, calls),
        f"{ro}.self_s": metric(ro, self_s),
        f"{ro}.useful_ratio": metric(ro, lambda a: a["distinct"] / a["trials"]),
        f"{cost}.calls": metric(cost, calls),
        f"{cost}.self_s": metric(cost, self_s),
        f"{cost}.calls_per_iter": metric(cost, lambda a: _div(a["calls"], iters)),
        f"{cost}.perm_share": metric(cost, lambda a: a["perm_calls"] / a["calls"]),
        "cli.span.self_s": metric("cli.span", self_s),
    }
    return out, missing


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quper" / "__init__.py").is_file():
        print(f"error: quper sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS is pinned to one thread before numpy loads it: the loop has one
    # caller, and a thread pool would only add run-to-run noise.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from tracing import Tracer
    from workloads import WORKLOADS, layer_targets

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  third-party imports are not part of set-up
    import scipy.optimize  # noqa: F401

    workload = WORKLOADS[args.workload](args.seed)
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        rate = reference_rate()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_scaled.append(setup_times[-1] * rate / REFERENCE_OPS_PER_S)
    records: list[dict] = []
    failures: list[dict] = []
    try:
        workload.warmup()
    except Exception:  # checked like any call; a failure skips the runs
        failures.append({"call": "warm-up", "error": traceback.format_exc()})
    report: dict = {"manifest": manifest(args, workload), "setup_s_raw": setup_times}
    if not args.trace:
        run_loop(workload, args.seconds, 0, records, failures)
        declared = spec["end_to_end"]
    else:
        half = args.seconds / 2
        nxt = run_loop(workload, half, 0, records, failures)
        untraced = len(records)
        tracer = Tracer()
        with tracer.patched(layer_targets(workload.mods)):
            run_loop(workload, half, nxt, records, failures, tracer.span)
        traced = records[untraced:]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
        declared = spec["per_layer"]
        iters = sum(r["work"] for r in traced) if workload.kind == "solver" else 0
        layers, missing = layer_metrics(tracer, workload.expected_spans, iters)
        report.update(
            missing_spans=missing,
            unpatched=tracer.unpatched,
            # A failed call can leave a half without completed calls.
            untraced_work_per_s=throughput(records[:untraced]) if untraced else None,
            traced_work_per_s=throughput(traced) if traced else None,
        )
    for name in report.get("missing_spans", ()):
        print(f"warning: span {name} never fired", file=sys.stderr)

    metrics: dict = {}
    if not failures:
        report["quality"] = quality(records, workload.kind)
        report["raw_work_per_s"] = throughput(records, "call_s")
        values = end_to_end(records, setup_scaled) | report["quality"]
        if args.trace:
            values.update(layers)
            values["trace.overhead_ratio"] = (
                report["untraced_work_per_s"] / report["traced_work_per_s"]
            )
        missing_names = {m["name"] for m in declared} - set(values)
        if missing_names:
            raise RuntimeError(f"unmeasured metrics: {sorted(missing_names)}")
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        }
    report.update(calls=records, failures=failures)
    for f in failures:
        print(f"check failed on call {f['call']}: {f['error']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records) + len(failures),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
