#!/usr/bin/env python3
"""Command-level benchmark for reflexorb, standard library only.

    python3 bench/run.py --workload hodge-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
`bench/`, so no installed package or console script is needed. The workloads
are in workloads.py and BENCHMARK.json; bench/README.md says what each one
exercises.

Commands run in-process through `reflexorb.cli.main(argv)` with stdout
captured, in a closed loop with one client: the next command starts when the
previous one returns. A run repeats the workload's command list in passes,
at least MIN_PASSES of them, for about `--seconds`. Every output is
checked (see workloads.check); a command fails on a non-zero exit code, an
exception or a failed check.

The end-to-end times are in reference seconds: each wall time is scaled by
how fast the machine ran a fixed probe before, during and after it (see
Clock). Other tenants of a shared host slow every instruction of a process
by up to 2x, for seconds to minutes at a time; the probe slows with the
program, so the scaled time stays put. The info line keeps the raw wall
time and the probe's median time.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced passes and reports per-layer self times and
counts per pass (see spans.py), and writes the spans to
`.bench_work/spans-<workload>-seed<seed>.jsonl`.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment. The run
exits with status 1, printing no result, when `src/reflexorb` is missing.

`--record-golden` rewrites golden.json from the program at hand: the sha256
of every command's stdout, with the input hash and oracle seed masked.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
TAIL_COPIES = 4
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
PROBE_REPEAT = 3
TICK_S = 0.025
# Time of one probe() on the 2-vCPU Xeon VM (Python 3.11.7) the benchmark
# was written on, in a stretch when nothing else loaded the host.
PROBE_REF_S = 0.0005


def load_program():
    """reflexorb.cli.main from this checkout's src/, never an installed copy."""
    if not (SRC / "reflexorb" / "cli.py").is_file():
        raise SystemExit(f"bench: no reflexorb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reflexorb.cli

    if not Path(reflexorb.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported reflexorb from {reflexorb.cli.__file__}, not {SRC}")
    return reflexorb.cli.main


def wall_time(fn):
    """(wall seconds, result) of fn()."""
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def execute(main, argv, tracer=None, cmd_id=None, clock=None):
    """Run one command; return (seconds, exit code or error text, stdout).
    The seconds are reference seconds when a Clock is given, else wall."""

    def call():
        try:
            if tracer is None:
                return main(list(argv))
            return tracer.command(cmd_id, main, list(argv))
        except Exception:
            return traceback.format_exc(limit=-1).strip().splitlines()[-1]

    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # each command starts from a clean heap, as a fresh process would
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        elapsed, code = (clock.time if clock else wall_time)(call)
    return elapsed, code, out.getvalue()


PROBE_ROWS = ((1, 2, -3, 4), (-2, 1, 5, -1), (3, -4, 1, 2), (0, 1, -1, 3), (2, 2, 2, -7))


def probe():
    """A fixed piece of pure-Python work that shares no code with reflexorb
    but has the program's mix: lattice points of a box kept as tuples in a
    list and a dict, lookups of their images, a Fraction sum, integer dot
    products and big-integer products. Everything it allocates is freed
    when it returns."""
    seen = {}
    points = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                p = (a, b, c, a - b)
                if all(r[0] * p[0] + r[1] * p[1] + r[2] * p[2] + r[3] * p[3] >= -9 for r in PROBE_ROWS):
                    seen[p] = len(points)
                    points.append(p)
    hits = sum(seen.get((p[1], p[0], p[3], p[2]), 0) for p in points)
    total = Fraction(0)
    for k in range(1, 30):
        total += Fraction(k, k + 7)
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                d = a - b
                if a + 2 * b - 3 * c + 4 * d >= -9 and 2 * a + 2 * b + 2 * c - 7 * d >= -9:
                    hits += 1
    big = 1
    for k in range(1, 160):
        big = big * (2 * k + 1) // k
    return hits + big % 7, total


def probe_time():
    """Seconds one probe() takes. The garbage collector is paused meanwhile,
    so the probe's short-lived objects neither start a collection nor move
    the program's next one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        probe()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls in reference seconds: the wall time the call would take on
    a machine that runs the probe in PROBE_REF_S.

    The probe runs PROBE_REPEAT times before and after each call (the median
    counts as one sample) and, when ticking, once every TICK_S of wall time
    inside it, from a SIGALRM handler. The call's time is its wall time less
    the ticks, times the mean of PROBE_REF_S / sample over the samples. As
    the samples are evenly spaced in wall time, that mean is the share of
    reference-speed work per wall second, however the speed varied.
    `wall` and `probes` keep the raw figures.
    """

    def __init__(self):
        self.last = self.edge_probe()
        self.ticks: list[tuple[float, float]] = []
        self.wall: list[float] = []
        self.probes = [self.last]

    @staticmethod
    def edge_probe():
        return statistics.median(probe_time() for _ in range(PROBE_REPEAT))

    def _tick(self, signum, frame):
        self.ticks.append((perf_counter(), probe_time()))

    def time(self, fn, tick=True):
        """(reference seconds, result) of fn(). Pass tick=False when fn waits
        for another process, which the ticks would not delay."""
        self.ticks = []
        if tick:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside = [d for t, d in self.ticks if t < start + wall]
        before, self.last = self.last, self.edge_probe()
        self.wall.append(wall)
        self.probes.append(self.last)
        speed = statistics.fmean(PROBE_REF_S / p for p in (before, *inside, self.last))
        return (wall - sum(inside)) * speed, result


class Runner:
    """Runs commands, checks each output and keeps the failure tally."""

    def __init__(self, main, golden, references):
        self.main = main
        self.golden = golden
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cmd, tracer=None, cmd_id=None, clock=None):
        elapsed, code, out = execute(self.main, cmd.argv, tracer, cmd_id, clock)
        self.attempted += 1
        reason = workloads.check(cmd, code, out, self.golden, self.references)
        if reason is not None:
            self.failures.append(f"{cmd.key}: {reason}")
        return elapsed, len(out.encode("utf-8"))


def measure(runner, cmds, seconds):
    """Untraced passes; returns each command's times and the
    fresh-interpreter import times sampled between passes, both in reference
    seconds, the pass count and the Clock with the raw figures.

    The first pass fixes the pass count at round(seconds / its time), at
    least MIN_PASSES, so the count does not hinge on when a clock runs out.
    """
    clock = Clock()
    times = [[] for _ in cmds]
    imports = [clock.time(import_fresh, tick=False)[0] for _ in range(SETUP_SAMPLES - MIN_PASSES)]
    planned = MIN_PASSES
    for passes in itertools.count(1):
        imports.append(clock.time(import_fresh, tick=False)[0])
        start = perf_counter()
        for i, cmd in enumerate(cmds):
            times[i].append(runner.run(cmd, clock=clock)[0])
        if passes == 1:
            planned = max(MIN_PASSES, round(seconds / (perf_counter() - start)))
        if passes >= planned:
            return times, passes, imports, clock


def measure_traced(runner, cmds, seconds):
    """Alternate untraced and traced passes; returns the tracer, the summed
    command times of each kind, the traced output bytes and the pair count."""
    tracer = spans.Tracer()
    untraced = traced = 0.0
    output_bytes = 0
    pairs = planned = 0
    while pairs < max(1, planned):
        start = perf_counter()
        untraced += sum(runner.run(cmd)[0] for cmd in cmds)
        tracer.install()
        try:
            for i, cmd in enumerate(cmds):
                elapsed, nbytes = runner.run(cmd, tracer, f"{pairs}:{i}")
                traced += elapsed
                output_bytes += nbytes
        finally:
            tracer.restore()
        if pairs == 0:
            planned = round(seconds / (perf_counter() - start))
        pairs += 1
    return tracer, untraced, traced, output_bytes, pairs


def layer_report(tracer, untraced, traced, output_bytes, pairs):
    """Per-layer metrics per pass over the command list."""
    values = spans.layer_metrics(tracer.spans)
    values["cli.output_bytes"] = output_bytes
    values = {k: v / pairs for k, v in values.items()}
    scanned = values["polytope.points_scanned"]
    values["polytope.points_yield"] = values["polytope.points_kept"] / scanned if scanned else 0.0
    values["trace.overhead_ratio"] = traced / untraced - 1
    return values


def import_fresh():
    """Run a fresh interpreter that imports reflexorb.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c", "import reflexorb.cli"],
        env=env,
        cwd=ROOT,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )  # no timeout: with one, wait() polls in steps of up to 50 ms


def tail(typical):
    """(value, percentile) of the tail of the command-time distribution in
    which each command appears TAIL_COPIES times at its median time: the
    highest percentile with TAIL_BEYOND samples above it. The percentile is
    fixed per command list, so it does not move with the pass count."""
    k = TAIL_COPIES * len(typical)
    value = sorted(typical)[max(0, k - TAIL_BEYOND - 1) // TAIL_COPIES]
    return value, max(0.0, 100.0 * (k - TAIL_BEYOND) / k)


def git_commit():
    git = ROOT / ".git"
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


def src_digest():
    """sha256 over the package sources, naming the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "reflexorb").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed):
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "REFLEXORB_THREADS": os.environ.get("REFLEXORB_THREADS"),
    }


def prepare(main, workload, seed, directory):
    """Write the workload's inputs, warm the interpreter up and compute the
    references its checks need. Returns (commands, runner)."""
    cmds = workloads.build(workload, seed, directory)
    references = {}
    for name, path in workloads.reference_inputs(workload, directory).items():
        _, code, out = execute(main, ("hodge", path))
        if code == 0:
            references[name] = workloads.hodge_numbers(out)
    warm = directory / "warmup.txt"
    warm.write_text(workloads.format_matrix(workloads.wps_vertices((1, 1, 1, 1, 1))), encoding="utf-8")
    execute(main, ("hodge", str(warm)))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    return cmds, Runner(main, golden, references)


def measure_workload(runner, cmds, seconds, trace):
    """Measure the command list; returns (metrics as name -> (value, unit), info)."""
    info = {"commands_per_pass": len(cmds), "trace": trace}
    if trace:
        tracer, untraced, traced, output_bytes, pairs = measure_traced(runner, cmds, seconds)
        report = layer_report(tracer, untraced, traced, output_bytes, pairs)
        metrics = {k: (v, unit_of(k)) for k, v in report.items()}
        info.update(passes=pairs, spans=len(tracer.spans), traced_s=traced, tracer=tracer)
        return metrics, info
    times, passes, imports, clock = measure(runner, cmds, seconds)
    # The probe already discounts slow stretches of the host, so each command
    # counts at its median pass, which also drops a pass's one-off stalls.
    typical = [statistics.median(ts) for ts in times]
    tail_value, tail_pct = tail(typical)
    metrics = {
        "setup_s": (statistics.median(imports), "s"),
        "cmds_per_s": (len(cmds) / sum(typical), "1/s"),
        "cmd_p50_s": (statistics.median(typical), "s"),
        "cmd_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info.update(
        passes=passes,
        cmd_samples=passes * len(cmds),
        cmd_tail_pct=tail_pct,
        probe_ref_s=PROBE_REF_S,
        probe_median_s=statistics.median(clock.probes),
        timed_wall_s=sum(clock.wall),
    )
    return metrics, info


def run(workload, seed, seconds, trace):
    main = load_program()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        cmds, runner = prepare(main, workload, seed, Path(tmp))
        metrics, info = measure_workload(runner, cmds, seconds, trace)
    if trace:
        info.pop("tracer").dump(WORK / f"spans-{workload}-seed{seed}.jsonl")
    failed = len(runner.failures)
    info.update(
        workload=workload,
        fail_ratio=failed / runner.attempted,
        failures=runner.failures[:20],
        env=environment(seed),
    )
    for line in runner.failures[:20]:
        print(f"bench: failed: {line}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
            sort_keys=True,
        )
    )


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.output_bytes":
        return "bytes"
    if metric in ("polytope.points_yield", "trace.overhead_ratio"):
        return "ratio"
    return "count"


def record_golden():
    """Rewrite golden.json from one pass of every workload at seed 0."""
    main = load_program()
    WORK.mkdir(exist_ok=True)
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in workloads.WORKLOADS:
            directory = Path(tmp) / workload
            directory.mkdir()
            for cmd in workloads.build(workload, 0, directory):
                _, code, out = execute(main, cmd.argv)
                digest = workloads.normalized_digest(cmd, out)
                if code != 0 or digest is None or digests.setdefault(cmd.key, digest) != digest:
                    raise SystemExit(f"bench: cannot record {cmd.key}: exit {code}")
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"bench: recorded {len(digests)} digests in {GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
