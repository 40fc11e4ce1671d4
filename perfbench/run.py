"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Earlier lines give the environment and each metric's sample
count.  Nothing here changes a machine setting: BLAS threads are pinned only
through the environment of the processes this script starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import KERNEL_REF_S

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker_argv(args, setup_only: bool) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return argv + ["--setup-only"] if setup_only else argv


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` line.  Returns the process,
    the wall seconds from its start to the end of its set-up (its kernel
    timings excluded), and the same in reference-host seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_argv(args, setup_only), cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    word, *kernel = line.split() or [""]
    if word != "ready" or len(kernel) != 2:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    wall = elapsed - float(kernel[1])
    return proc, wall, wall * KERNEL_REF_S / float(kernel[0])


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran longer than {TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest order statistic with at least ten samples above it, and
    its rank (1-based); the median's upper neighbour below 22 samples."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], k + 1


def end_to_end(report: dict, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Times are in reference-host seconds (see KERNEL_REF_S in worker.py)."""
    calls = report["call_s"]
    tail_s, rank = tail(calls)
    values = {
        "batch_s": statistics.median(report["batch_s"]),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "call_ms.p50": 1000.0 * statistics.median(calls),
        "call_ms.tail": 1000.0 * tail_s,
    }
    notes = [
        f"host scale: {', '.join(f'{s:.3f}' for s in report['scale'])} per pass; "
        f"wall batch_s {statistics.median(report['wall_batch_s']):.4f}, "
        f"wall setup_s {statistics.median(wall for wall, _ in setup):.4f}",
        f"batch_s: median of {len(report['batch_s'])} passes of "
        f"{report['calls_per_pass']} calls",
        f"setup_s: median of {len(setup)} process starts",
        f"call_ms.p50: median of {len(calls)} headline calls",
        f"call_ms.tail: {rank}th of {len(calls)} headline calls "
        f"(p{100.0 * rank / len(calls):.0f}, {len(calls) - rank} above it)",
    ]
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "riskspace" / "__init__.py").is_file():
        print(f"no riskspace source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    try:
        setup: list[tuple[float, float]] = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, wall, scaled = start_worker(args, setup_only=True)
                finish(probe)
                setup.append((wall, scaled))
        proc, wall, scaled = start_worker(args, setup_only=False)
        setup.append((wall, scaled))
        lines = finish(proc).splitlines()
        if not lines:
            raise RuntimeError("worker printed no report")
        report = json.loads(lines[-1])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        section, values, notes = "per_layer", report["layers"], []
    else:
        section = "end_to_end"
        values, notes = end_to_end(report, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **report["versions"],
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and not report["problems"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "problems": report["problems"],
              "metrics": metrics,
              "raw": {"wall_setup_s": [wall for wall, _ in setup],
                      "setup_s": [scaled for _, scaled in setup],
                      **{key: report[key] for key in ("scale", "batch_s", "call_s",
                                                      "wall_batch_s", "wall_op_s")}}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    for problem in report["problems"]:
        print(f"problem {problem}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for note in notes:
        print(f"note {note}")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
