"""maskdetect benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload transfer --seed 1 --seconds 10 --trace 0

Workloads: transfer, transfer-aug, scan, annotate (see bench/README.md).
The benchmark imports the package from ``src/`` beside this directory and
nothing else.  It prints one JSON record line (machine, seed, failures,
the metrics under their descriptive names) and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Scratch
files live under ``.bench_work/`` and are removed; traces are written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("transfer", "transfer-aug", "scan", "annotate")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # One BLAS thread: the desk model's matrices are small, so a second
    # thread made training slower here (9.0-10.0 s against 8.4 s per
    # two-phase run on 2 CPUs) and its spinning added noise.  BLAS reads
    # the setting once, when numpy loads.
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    src = ROOT / "src"
    if not (src / "maskdetect" / "__init__.py").is_file():
        print(f"error: no maskdetect sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import numpy as np

    import maskdetect
    import workloads

    if Path(maskdetect.__file__).resolve().parent != src / "maskdetect":
        print(f"error: imported maskdetect from {maskdetect.__file__}, not {src}",
              file=sys.stderr)
        return 2

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(np),
            "blas_threads": threads,
        },
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result, record = workloads.measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), ROOT, record)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
