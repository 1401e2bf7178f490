"""Benchmark of the fedfs cross-entropy loop, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fedfs is imported from ``src/``.
The workload's inputs are built from the seed several times and the median
set-up time is kept. Repetitions of a fixed amount of work then run until
``--seconds`` have passed, each checked for valid output and for being bit
for bit equal to the first. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time, masks
scored per unit of calibration work timed between repetitions (see
``harness.calibration_seconds``), and peak RSS. With ``--trace 1`` the first
half of the time runs untraced, the second half with every public fedfs
layer wrapped by ``tracer.py``, and the metrics are per-layer figures per
repetition; the spans of the first traced repetition go to ``.bench_out/``
in the checkout.
``fedfs.cli`` is file I/O glue and is not measured.

Exit code 2, with no result, when the checkout has no ``src/fedfs`` or the
workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _pin_run_conditions() -> None:
    """One thread: no BLAS pool for the aggregate matmul, no fedfs client pool."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FEDFS_THREADS", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedfs benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedfs" / "__init__.py").is_file():
        print(f"error: no fedfs sources at {SRC}", file=sys.stderr)
        return 2
    _pin_run_conditions()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness  # imports numpy, so only after the thread settings are pinned

    workload = harness.workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(sorted(harness.workloads.WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    result, lines = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
