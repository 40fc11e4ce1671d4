"""Write reference.json: every operation's fingerprint at the default seed.

    python3 perfbench/freeze_reference.py

Run it only when a batch changes on purpose; the benchmark then fails any
run at seed 0 whose outputs drift from these values by more than 1e-9.
Outputs that fail their own checks are never frozen.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import DEFAULT_SEED, OUT, REFERENCE  # noqa: E402


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / "freeze"
    workdir.mkdir(exist_ok=True)
    reference = {}
    try:
        for name in [*workloads.IN_PROCESS, *workloads.CLI]:
            # CLI outputs are the same in process, and far quicker to get
            ops = workloads.build(name, DEFAULT_SEED, str(workdir), in_process=True)
            fingerprints = []
            for op in ops:
                result = op.run()
                problems = op.check(result)
                if problems:
                    print(f"{name}: {op.name}: {problems}", file=sys.stderr)
                    return 1
                fingerprints.append(op.fingerprint(result))
            reference[name] = fingerprints
            print(f"{name}: {len(ops)} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(fp)}" for fp in fps)
        + "\n ]" for name, fps in reference.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
