#!/usr/bin/env python3
"""Self-test of the benchmark itself: `python3 bench/selftest.py`.

Checks, on a few cheap commands of every workload:

1. every metric a run reports is declared in BENCHMARK.json with the same
   unit, and every declared metric is reported, with tracing off and on;
2. the self times of a traced run sum to no more than its wall time, and
   the self-time rule splits time between concurrent thread spans evenly;
3. the generator writes identical files and commands for the same seed;
4. in a directory holding only BENCHMARK.json and bench/, a run exits with
   a non-zero status and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

CHEAP = ("P(1,1,2,2,2)", "P(1,1,1,1,1)")


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def check_metrics_and_self_times(main, tmp):
    end_to_end, per_layer, names = declared()
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {list(workloads.WORKLOADS)}")
    for workload in workloads.WORKLOADS:
        directory = tmp / workload
        directory.mkdir()
        cmds, runner = run.prepare(main, workload, 0, directory)
        cmds = [c for c in cmds if c.key.endswith(CHEAP)][:2]
        for trace, want in ((0, end_to_end), (1, per_layer)):
            metrics, info = run.measure_workload(runner, cmds, 0, trace)
            got = {k: unit for k, (_, unit) in metrics.items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: reported {got}, declared {want}")
            if trace:
                own = sum(spans.self_times(info["tracer"].spans).values())
                if own > info["traced_s"]:
                    problems.append(f"{workload}: self times {own} exceed wall {info['traced_s']}")
        if runner.failures:
            problems.append(f"{workload}: {runner.failures}")
    return problems


def check_concurrent_split():
    # parent 0..10 on the command thread; children a (1..5) and b (2..6) on
    # two workers: 2..5 is shared, so a and b get 2.5 each and the parent 5
    recs = [
        [0, "p", None, 0.0, 10.0, None, "c", None],
        [1, "a", None, 1.0, 5.0, 0, "c", None],
        [2, "b", None, 2.0, 6.0, 0, "c", None],
    ]
    got = spans.self_times(recs)
    if got != {0: 5.0, 1: 2.5, 2: 2.5}:
        return [f"concurrent self times {got}"]
    return []


def check_generator(tmp):
    problems = []
    for workload in workloads.WORKLOADS:
        listings = []
        for label in ("a", "b", "c"):
            directory = tmp / f"gen-{workload}-{label}"
            directory.mkdir()
            cmds = workloads.build(workload, 7 if label != "c" else 8, directory)
            files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            argv = [tuple(Path(a).name if a.startswith(str(directory)) else a for a in c.argv) for c in cmds]
            listings.append((files, argv, [c.key for c in cmds]))
        if listings[0] != listings[1]:
            problems.append(f"{workload}: same seed gave different inputs")
        if listings[0] == listings[2]:
            problems.append(f"{workload}: another seed gave the same inputs")
    return problems


def check_bare_directory(tmp):
    bare = tmp / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hodge-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    program = run.load_program()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        problems = (
            check_metrics_and_self_times(program, tmp)
            + check_concurrent_split()
            + check_generator(tmp)
            + check_bare_directory(tmp)
        )
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
