"""One benchmark process: set up a workload, time it, check it.

Started by ``run.py`` with the thread pinning and ``PYTHONPATH`` already in
its environment.  It prints ``ready`` once ``riskspace`` is imported and the
inputs exist (the end of set-up), then, unless ``--setup-only``, one JSON
line of raw measurements for ``run.py`` to summarise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0

# The shared host's speed drifts by a third within minutes, in wall and CPU
# time alike.  A fixed pure-Python kernel, run untimed before every call,
# tracks that drift (its time correlates 0.8 with an exact solve's), so each
# pass's times are scaled by KERNEL_REF_S / (its median kernel time): they
# read as on a host where the kernel takes KERNEL_REF_S, as it does on the
# reference machine (2 shared cores, Python 3.11).  The kernel touches no
# riskspace code, so a change to the library cannot move it.
KERNEL_ITERS = 100_000
KERNEL_REF_S = 0.0055


def kernel_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(KERNEL_ITERS):
        total += i * i
    return time.perf_counter() - t0


def run_pass(ops) -> dict:
    """Run every operation once, each after one kernel timing.  A raised
    exception is kept as that operation's result.  Times are wall seconds;
    ``scale`` converts them to reference-host seconds."""
    times, results, kernel = [], [], []
    for op in ops:
        kernel.append(kernel_s())
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
    return {"seconds": sum(times), "times": times, "results": results,
            "scale": KERNEL_REF_S / statistics.median(kernel)}


def run_timed(ops, passes: int, tracer=None) -> list[dict]:
    """Run the batch ``passes`` times.  With a tracer, passes alternate
    untraced and traced, starting untraced."""
    runs: list[dict] = []
    for index in range(passes):
        traced = tracer is not None and index % 2 == 1
        if traced:
            with tracer.active():
                run = run_pass(ops)
        else:
            run = run_pass(ops)
        run.update(traced=traced, spans=tracer.spans if traced else None)
        runs.append(run)
    return runs


def close_enough(a: list[float], b: list[float], tol: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def check_passes(name: str, seed: int, ops, passes) -> tuple[int, int, list[str]]:
    """Outputs are checked once per operation; later passes must repeat the
    first pass's fingerprint exactly.  Returns (attempted, failed, problems)."""
    frozen = None
    if seed == DEFAULT_SEED and REFERENCE.exists():
        frozen = json.loads(REFERENCE.read_text()).get(name)
    attempted = failed = 0
    problems: list[str] = []
    for i, op in enumerate(ops):
        first = passes[0]["results"][i]
        if isinstance(first, Exception):
            faults = [f"raised {type(first).__name__}: {first}"]
            fingerprint = None
        else:
            try:
                faults = op.check(first)
                fingerprint = op.fingerprint(first)
            except Exception as exc:  # a check that cannot run is a failure
                faults, fingerprint = [f"check raised {type(exc).__name__}: {exc}"], None
        if frozen is not None and fingerprint is not None and not close_enough(
                fingerprint, frozen[i], 1e-9):
            faults = faults + ["differs from the frozen default-seed value"]
        problems += [f"{op.name}: {msg}" for msg in faults]
        for p in passes:
            attempted += 1
            result = p["results"][i]
            if faults or isinstance(result, Exception):
                failed += 1
            elif p is not passes[0] and op.fingerprint(result) != fingerprint:
                failed += 1
                problems.append(f"{op.name}: result differs between passes")
    return attempted, failed, problems


# --------------------------------------------------------------------------
# CLI-layer probes for the traced run
# --------------------------------------------------------------------------

def _wall_ms(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return 1000.0 * (time.perf_counter() - t0), proc


def cli_probes(seed: int, workdir: str) -> dict[str, float]:
    """Interpreter floor, import cost, scipy.optimize's share of it, and
    in-process ``cli.main`` time per command class after import."""
    import workloads

    interp = [_wall_ms([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    timer = ("import time; t = time.perf_counter(); import riskspace.cli; "
             "print(time.perf_counter() - t)")
    imports = [1000.0 * float(_wall_ms([sys.executable, "-c", timer])[1].stdout)
               for _ in range(3)]
    _, proc = _wall_ms([sys.executable, "-X", "importtime", "-c", "import riskspace.cli"])
    scipy_optimize_us = 0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if match and match.group(2) == "scipy.optimize":
            scipy_optimize_us = int(match.group(1))
    import riskspace.cli  # noqa: F401  (loaded before timing)

    main_ms = {}
    for label, build in (("nolp", workloads.nolp_commands), ("lp", workloads.lp_commands)):
        times = []
        for command in build(seed, workdir):
            t0 = time.perf_counter()
            workloads.run_in_process(command.argv)
            times.append(1000.0 * (time.perf_counter() - t0))
        main_ms[label] = statistics.median(times)
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports),
        "cli.import_scipy_optimize_ms": scipy_optimize_us / 1000.0,
        "cli.main_ms.nolp": main_ms["nolp"],
        "cli.main_ms.lp": main_ms["lp"],
    }


def traced_metrics(name, passes, probes) -> tuple[dict, list[str]]:
    from tracing import COUNTS, layer_metrics

    per_pass = [layer_metrics(p["spans"]) for p in passes if p["traced"]]
    problems = [f"per-layer {key} differs between traced passes"
                for key in COUNTS if len({m[key] for m in per_pass}) > 1]
    layers = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    if name == "cli-nolp" and layers["lp.calls"]:
        problems.append(f"cli-nolp solved {layers['lp.calls']} LPs")
    untraced = statistics.median(p["seconds"] * p["scale"] for p in passes
                                 if not p["traced"])
    traced = statistics.median(p["seconds"] * p["scale"] for p in passes if p["traced"])
    layers.update(probes)
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return layers, problems


def write_spans(name: str, seed: int, passes) -> None:
    path = OUT / f"spans-{name}-seed{seed}.json"
    data = [{"pass": k, "spans": p["spans"]} for k, p in enumerate(passes) if p["traced"]]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "info"],
                                "passes": data}))


def main(argv: list[str] | None = None) -> int:
    """Prints ``ready <median kernel s> <total kernel s>`` at the end of
    set-up, then the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # set-up is scaled by this process's own kernel time, taken first
    kernel = [kernel_s() for _ in range(3)]

    import numpy
    import scipy
    import riskspace

    if Path(riskspace.__file__).resolve().parent != ROOT / "src" / "riskspace":
        print(f"riskspace imported from {riskspace.__file__}, not this checkout",
              file=sys.stderr)
        return 3
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir),
                              in_process=bool(args.trace))
        print(f"ready {statistics.median(kernel)!r} {sum(kernel)!r}", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer, leftover_wrappers
            tracer = Tracer()
        nominal = workloads.NOMINAL_PASS_S[args.workload]
        passes = run_timed(ops, max(2 if args.trace else 1,
                                    round(args.seconds / nominal)), tracer)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload in workloads.CLI
            and not args.trace else resource.RUSAGE_SELF)
        attempted, failed, problems = check_passes(args.workload, args.seed, ops, passes)
        untraced = [p for p in passes if not p["traced"]]
        report = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "batch_s": [p["seconds"] * p["scale"] for p in untraced],
            "call_s": [t * p["scale"] for p in untraced
                       for op, t in zip(ops, p["times"]) if op.headline],
            "scale": [p["scale"] for p in untraced],
            "wall_batch_s": [p["seconds"] for p in untraced],
            "wall_op_s": [p["times"] for p in untraced],
            "calls_per_pass": len(ops),
            "peak_rss_kb": usage.ru_maxrss,
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__},
        }
        if tracer is not None:
            leftover = leftover_wrappers()
            report["layers"], trace_problems = traced_metrics(
                args.workload, passes, cli_probes(args.seed, str(workdir)))
            report["problems"] += trace_problems + [f"wrapper left on {name}"
                                                    for name in leftover]
            write_spans(args.workload, args.seed, passes)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
