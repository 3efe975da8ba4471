"""Benchmark of the s2ip forecaster.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead. The lines before it give the same
numbers under the names the metrics have per workload, the correctness
checks and the environment. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads of this process, fixed before numpy loads; one thread keeps
# timings steady on a shared machine and the arithmetic bit-reproducible
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``s2ip`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "s2ip"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no s2ip sources under {package.parent}; "
                         "run from the root of a source checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import s2ip
    if Path(s2ip.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported s2ip from {s2ip.__file__}, "
                         f"not from {package}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import measure
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{WORKLOADS}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), workdir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("env " + json.dumps(measure.environment(ROOT, BLAS_THREADS),
                              sort_keys=True))
    for line in result.report_lines:
        print(line)
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
