"""dualflow benchmark: one closed-loop workload per run, from the checkout root.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One caller runs whole passes of operations until ``--seconds`` have passed;
each operation starts when the previous one (and its checks) finished.  A
pass runs every operation of the workload once, so each operation (a
"slot") is repeated once per pass.  Every time is scaled to a host of fixed
speed by reference units timed between the operations (see :class:`Pace`),
and each slot's time is the median over its repetitions.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Answers, call times and
(traced) spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import self_test
from spans import NullTracer, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
REFERENCE_TERMS = 1000
REFERENCE_S = 0.0004  # nominal time of one reference unit
PACE_WINDOW_S = 0.5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import dualflow; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "builders", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, choices=range(1, 61), metavar="1..60")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def current_rss_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def spawn_seconds(args) -> float:
    started = perf_counter()
    subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   capture_output=True, check=True, timeout=60)
    return perf_counter() - started


def import_seconds() -> float:
    """``import dualflow`` timed inside a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def reference_unit() -> float:
    """Time one fixed unit of small-integer rational arithmetic, the
    interpreter-bound kind of work dualflow's ``Fraction`` code does.  It
    allocates nothing the garbage collector tracks, so it does not move the
    collections that fall inside the operations."""
    started = perf_counter()
    num, den = 0, 1
    for i in range(REFERENCE_TERMS):
        a, b = i % 11, i % 7 + 1
        num, den = num * b + a * den, den * b
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return perf_counter() - started


class Pace:
    """The host's speed over the run, from reference units timed between
    operations.

    On a shared host the same code runs up to 1.8 times slower from one
    moment to the next, and the typical slow-down drifts over seconds and
    minutes; the reference unit slows down with it.  ``factor`` scales a
    time measured over ``[start, end]`` to a host on which the unit takes
    ``REFERENCE_S``, using the median unit within ``PACE_WINDOW_S`` of the
    interval."""

    def __init__(self):
        self.times: list[float] = []
        self.units: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = perf_counter()
            seconds = reference_unit()
            self.times.append(started + seconds / 2)
            self.units.append(seconds)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - PACE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PACE_WINDOW_S)
        return REFERENCE_S / statistics.median(self.units[lo:hi])


class Run:
    """Counters of one benchmark run."""

    def __init__(self, workload, inputs, tracer, clear_caches, pass_rounds, pace):
        self.clear_caches = clear_caches
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.pass_rounds = pass_rounds
        self.pace = pace
        # untraced timed calls: (slot, start, seconds); a slot is the round
        # within the pass and the position in the round, and uncounted
        # set-up steps (the sweep's per-instance preparation) have slots too
        self.calls: list[tuple[tuple[int, int], float, float]] = []
        self.counted_slots: set[tuple[int, int]] = set()
        self.by_name: dict[str, list[float]] = {}
        self.timed = {False: 0.0, True: 0.0}
        self.rounds = {False: 0, True: 0}
        self.round_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: list = []
        self.op_id = 0
        self.round_check_failed = False

    def round(self, index: int, traced: bool) -> None:
        """Run one round; only untraced rounds feed latencies and answers."""
        self.clear_caches()
        gc.collect()
        t = self.tracer if traced else NullTracer()
        if traced:
            t.collect_gc(True)
        ops = self.workload.round(self.inputs, index, t)
        timed_before = self.timed[traced]
        position = 0
        try:
            for op in ops:
                self.op_id += 1
                if self.pace is not None:
                    self.pace.sample()
                started = perf_counter()
                try:
                    if traced:
                        t.op = self.op_id
                        op.result = t.call("op", op.fn, tag=op.name)
                    else:
                        op.result = op.fn()
                    raised = None
                except Exception as exc:  # an operation that raises counts as failed
                    raised = exc
                elapsed = perf_counter() - started
                self.timed[traced] += elapsed
                slot = (index % self.pass_rounds, position)
                position += 1
                if not traced:
                    self.calls.append((slot, started, elapsed))
                if raised is None:
                    try:
                        op.answer = op.check(op.result)
                        op.ok = True
                    except Exception as exc:
                        raised = exc
                if raised is not None:
                    self.problems.append(f"round {index} {op.name}: {type(raised).__name__}: {raised}")
                if op.counted:
                    self.attempted += 1
                    self.failed += not op.ok
                    if not traced:
                        self.counted_slots.add(slot)
                        self.by_name.setdefault(op.name, []).append(elapsed)
                elif not op.ok:
                    # a failed set-up step drops the operations built on it
                    self.round_check_failed = True
                if op.ok and not traced:
                    self.answers.append([index, op.name, op.answer])
        except Exception as exc:  # a check spanning several operations
            self.problems.append(f"round {index} cross-check: {type(exc).__name__}: {exc}")
            self.round_check_failed = True
        finally:
            if traced:
                t.collect_gc(False)
        if self.pace is not None:
            self.pace.sample()
        self.rounds[traced] += 1
        if not traced:
            self.round_seconds.append(self.timed[traced] - timed_before)

    def slot_times(self) -> dict[tuple[int, int], list[float]]:
        """Each slot's times, scaled by the pace around each call."""
        slots: dict[tuple[int, int], list[float]] = {}
        for slot, start, seconds in self.calls:
            slots.setdefault(slot, []).append(seconds * self.pace.factor(start, start + seconds))
        return slots


def layers_by_operation(tracer, rounds: int) -> dict:
    """Self time per round, in ms, of each layer under each operation name;
    ``bench`` is the operation span's own time outside any layer call."""
    spans, own = tracer.spans, tracer.self_times()
    table: dict[str, dict[str, float]] = {}
    for span, seconds in zip(spans, own):
        if span.name == "op":
            op_name, layer = span.tag, "bench"
        elif span.parent is not None:
            op_name, layer = spans[span.parent].tag, span.name
        else:
            op_name, layer = span.name, span.name
        row = table.setdefault(op_name, {})
        row[layer] = row.get(layer, 0.0) + seconds * 1000 / rounds
    return table


def startup_ms() -> tuple[float, float]:
    """Medians of a bare interpreter and of one that imports dualflow.cli."""
    bare = [spawn_seconds(["-c", "pass"]) for _ in range(SETUP_REPEATS)]
    with_cli = [spawn_seconds(["-c", "import dualflow.cli"]) for _ in range(SETUP_REPEATS)]
    return statistics.median(bare) * 1000, statistics.median(with_cli) * 1000


def layer_metrics(run: Run, tracer, retained_mib: float, import_ms: float) -> dict:
    spans, own = tracer.spans, tracer.self_times()
    rounds = max(run.rounds[True], 1)

    def total(name, tag=None):
        return sum(o for s, o in zip(spans, own) if s.name == name and (tag is None or s.tag == tag))

    def steps(name):
        return sum(s.steps or 0 for s in spans if s.name == name)

    def ms(name, tag=None):
        return total(name, tag) * 1000 / rounds

    def per_step(name):
        count = steps(name)
        return total(name) * 1e6 / count if count else 0.0

    untraced = run.timed[False] / max(run.rounds[False], 1)
    traced = run.timed[True] / rounds
    values = {
        "model.degeneracy_report.ms": (ms("model.degeneracy_report"), "ms"),
        "oracle.enumerate_vertices.ms": (ms("oracle.enumerate_vertices"), "ms"),
        "oracle.circuit_distance.ms": (ms("oracle.circuit_distance"), "ms"),
        "oracle.circuit_distance.cutvertex.ms": (ms("oracle.circuit_distance", "cutvertex"), "ms"),
        "oracle.circuit_distance.biconnected.ms": (ms("oracle.circuit_distance", "biconnected"), "ms"),
        "oracle.combinatorial_distance.ms": (ms("oracle.combinatorial_distance"), "ms"),
        "oracle.diameter.edge.ms": (ms("oracle.diameter", "edge"), "ms"),
        "oracle.diameter.circuit.ms": (ms("oracle.diameter", "circuit"), "ms"),
        "oracle.retained_mib": (retained_mib, "MiB"),
        "walks.circuit_walk.ms": (ms("walks.circuit_walk"), "ms"),
        "walks.circuit_walk.degenerate.ms": (ms("walks.circuit_walk", "degenerate"), "ms"),
        "walks.edge_walk.ms": (ms("walks.edge_walk"), "ms"),
        "walks.validate_walk.ms": (ms("walks.validate_walk"), "ms"),
        "walks.circuit_walk.steps": (steps("walks.circuit_walk") / rounds, "count"),
        "walks.edge_walk.steps": (steps("walks.edge_walk") / rounds, "count"),
        "walks.circuit_walk.us_per_step": (per_step("walks.circuit_walk"), "us"),
        "walks.edge_walk.us_per_step": (per_step("walks.edge_walk"), "us"),
        "cli.run.ms": (ms("cli.run"), "ms"),
        "cli.import.ms": (import_ms, "ms"),
        "python.gc.ms": (tracer.gc_seconds * 1000 / rounds, "ms"),
        "python.gc.gen2": (tracer.gc_gen2 / rounds, "count"),
        "trace.overhead_pct": ((traced / untraced - 1) * 100 if untraced else 0.0, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualflow" / "__init__.py").is_file():
        sys.stderr.write("bench: src/dualflow not found; run from the root of a dualflow checkout\n")
        return 2
    # One CPU for the benchmark and its children: the reference units then
    # time the core the operations and the ``dualflow`` subprocesses run on,
    # and a child's import no longer depends on which core it lands.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Load dualflow from bytecode, as an installed package does, even where
    # PYTHONDONTWRITEBYTECODE would make every process compile it again.
    compileall.compile_dir(str(SRC / "dualflow"), quiet=1)
    sys.path.insert(0, str(SRC))
    self_test_failures = self_test()
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = {
        "sweep": workloads.Sweep,
        "oracle": workloads.Oracle,
        "builders": workloads.Builders,
        "cli": lambda: workloads.Cli(str(OUT), str(SRC)),
    }[args.workload]()

    # set-up: import in a fresh interpreter plus input generation, repeated,
    # each repetition scaled by the pace around it
    pace = Pace()
    imports, generations, setups = [], [], []
    for _ in range(SETUP_REPEATS):
        pace.sample(5)
        started = perf_counter()
        imports.append(import_seconds())
        gc.collect()
        begun = perf_counter()
        inputs = workload.generate(args.seed)
        generations.append(perf_counter() - begun)
        pace.sample(5)
        setups.append((imports[-1] + generations[-1]) * pace.factor(started, perf_counter()))
    setup_s = statistics.median(setups)

    tracer = Tracer() if args.trace else None
    pass_rounds = workload.PASS_ROUNDS
    run = Run(workload, inputs, tracer, workloads.clear_caches, pass_rounds,
              None if args.trace else pace)
    retained_mib = 0.0
    deadline = perf_counter() + args.seconds
    index = 0
    while index == 0 or index % pass_rounds or perf_counter() < deadline:
        if not args.trace:
            run.round(index, traced=False)
        else:
            # each round runs untraced and traced, in alternating order, so the
            # difference between the two is the tracing overhead
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                before = current_rss_mib()
                run.round(index, traced)
                if index == 0 and not traced and args.workload in ("sweep", "oracle"):
                    retained_mib = current_rss_mib() - before
                if traced and args.workload == "cli":
                    tracer.op = None
                    workload.run_in_process(inputs, tracer)
        index += 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
        "rounds": index,
        "passes": index // pass_rounds,
        "self_test_failures": self_test_failures,
        "setup": {"import_s": imports, "generate_s": generations, "scaled_s": setups},
        "problems": run.problems,
    }
    if args.trace:
        bare_ms, with_cli_ms = startup_ms()
        metrics = layer_metrics(run, tracer, retained_mib, with_cli_ms - bare_ms)
        report["layer_ms_by_operation"] = layers_by_operation(tracer, max(run.rounds[True], 1))
        report["bare_interpreter_ms"] = bare_ms
        report["spans"] = len(tracer.spans)
        tracer.write(OUT / f"{stem}-spans.json")
    else:
        slots = run.slot_times()
        typical = {slot: statistics.median(samples) for slot, samples in slots.items()}
        slot_s = [typical[slot] for slot in sorted(run.counted_slots)]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(slot_s) / sum(typical.values()), "1/s"),
            "op_p50_ms": (statistics.median(slot_s) * 1000, "ms"),
            "op_p90_ms": (statistics.quantiles(slot_s, n=10)[8] * 1000, "ms"),
            "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
        report["slots"] = len(slot_s)
        report["repetitions_per_slot"] = sorted({len(s) for s in slots.values()})
        report["slot_scaled_s"] = [[list(slot), slot in run.counted_slots, samples]
                                   for slot, samples in slots.items()]
        report["raw_call_s"] = [[list(slot), seconds] for slot, _, seconds in run.calls]
        report["reference_unit_s"] = statistics.quantiles(pace.units, n=20)[::9]
        report["round_timed_s"] = run.round_seconds
        report["median_ms_by_operation"] = {
            name: statistics.median(samples) * 1000 for name, samples in sorted(run.by_name.items())
        }
        report["slots_beyond_p90"] = sum(x * 1000 > values["op_p90_ms"][0] for x in slot_s)
    correct = not run.round_check_failed and not self_test_failures
    report.update(correct=correct, attempted=run.attempted, failed=run.failed, metrics=metrics)
    report["answers"] = run.answers
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    for line in run.problems[:20]:
        sys.stderr.write(f"bench: {line}\n")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
