"""Repository benchmark: cold paper commands, streaming ingest, and
scrapes during ingest.

    python3 perfbench/run.py --workload batch|stream|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` runs the workload against
cold CLI processes and reports the end-to-end metrics; ``--trace 1``
replays the in-process calls of every layer under the benchmark's own
span recorder and reports the per-layer metrics.  Human-readable lines
(every metric by name, with unit and sample count) come first; the last
line of standard output is one JSON object.  The exit code is nonzero
when any output check failed or the run is invalid.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout for report files, port files, logs
#: and traces.
WORK = ROOT / ".perfbench"



def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["batch", "stream", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stamp() -> dict[str, str]:
    """Host and build facts every result is stamped with."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    loops = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        loops.append(time.perf_counter() - start)
    return {
        "cpu_count": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        # Host speed: a fixed pure-Python loop, to tell host drift from a
        # change in the program when runs disagree.
        "host_loop_ms": f"{statistics.median(loops) * 1000:.1f}",
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/repro/cli.py", "STUDY_REPORT.md", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of the program (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import compileall

    import workloads
    from procs import Program

    # Byte-compile once so no timed command pays for writing caches.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        facts = stamp()
        print("stamp: " + " ".join(f"{k}={v}" for k, v in facts.items()))
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} chain_seed={workloads.CHAIN_SEED}")
        program = Program(ROOT, scratch)
        if args.trace:
            return run_traced(args, program)
        return run_untraced(args, program, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_untraced(args, program, workloads) -> int:
    outcome = workloads.WORKLOADS[args.workload](program, args.seed, args.seconds)
    for name, metric in outcome.metrics.items():
        print(f"  {name:<24s} {metric.value:14.6f} {metric.unit:<9s} "
              f"n={metric.n:<4d} {metric.how}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    if outcome.invalid:
        print(f"INVALID RUN: {outcome.invalid}", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    missing = [name for name in units if name not in outcome.end_to_end]
    if missing:
        print(f"error: could not measure {', '.join(missing)}", file=sys.stderr)
        for problem in outcome.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    emit(
        outcome.failed == 0, outcome.attempted, outcome.failed,
        {name: {"value": outcome.end_to_end[name], "unit": unit}
         for name, unit in units.items()},
    )
    return 0 if outcome.failed == 0 else 1


def run_traced(args, program) -> int:
    import layers

    replay = layers.replay(program, args.seed)
    trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
    replay.tracer.write(trace_path)
    print(f"wrote {len(replay.tracer.spans)} spans to {trace_path.relative_to(ROOT)}")
    print("self time by span (s):")
    for name, total in replay.tracer.self_times()[:25]:
        print(f"  {name:<40s} {total:10.4f}")
    for name, (value, unit, note) in replay.metrics.items():
        print(f"  {name:<32s} {value:14.6f} {unit:<6s} {note}")
    bypass = layers.BYPASSED.get(args.workload, ())
    if bypass:
        print(f"  note: the {args.workload} workload itself bypasses: {', '.join(bypass)}")
    for problem in replay.problems:
        print(f"  FAILED: {problem}")
    emit(
        not replay.problems, replay.attempted, len(replay.problems),
        {name: {"value": value, "unit": unit}
         for name, (value, unit, _) in replay.metrics.items()},
    )
    return 0 if not replay.problems else 1


if __name__ == "__main__":
    sys.exit(main())
