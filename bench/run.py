"""Run one benchmark workload in a fresh process and print its metrics.

    python3 bench/run.py --workload eavesdrop-l64 --seed 1 --seconds 8 --trace 0

Run it from the repository root.  The workload runs in a child process
(bench/workloads.py) with the BLAS/OpenMP pools pinned to BLAS_THREADS
threads; this launcher times the child from start to exit and reads its peak
memory.  With --trace 0 the last line of standard output is one JSON object
with the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  Exits 1 when the workload fails to run, 2 when the package sources
are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
WORKLOAD_TIMEOUT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "facelight" / "__init__.py").is_file():
        print(f"error: no facelight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(ROOT / "bench" / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    t0 = time.perf_counter()
    # a session of its own, so a timeout can stop the CLI children too
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    # SIGTERM leaves through the finally below, which stops the whole session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        stdout, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran over {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:  # timed out or stopped by a signal
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - t0
    with contextlib.suppress(OSError):  # left in place while other runs use it
        workdir.parent.rmdir()
    # largest resident set of the workload process and of every process it waited for
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            "wall_s": wall_s,
            "items_per_s": statistics.median(result["rates"]),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    print(f"blas_threads {BLAS_THREADS}")
    print(f"setup_s {' '.join(f'{s:.3f}' for s in result['setup_s'])}")
    print(f"items {result['items']} in {result['work_s']:.3f} s, {len(result['rates'])} throughput samples")
    print(f"labels_digest {result['labels_digest']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
