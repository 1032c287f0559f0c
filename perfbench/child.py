"""One measured process of the benchmark (started by ``run.py``).

``prep`` writes a workload's stimulus table and, for a warm workload,
fills the artifact cache by building the engine once.  ``measure``
times one set-up -- FIRRTL text handed to the engine constructor until
the first testbench cycle completes -- between two windows of host-speed
probes, then runs the timed testbench loop and checks the first and
last lane against the scalar simulator.  It prints one JSON object as
its last line.

The artifact cache is the one ``REPRO_CACHE_DIR`` names; ``run.py``
sets it, so shard workers see the same cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Workload, output_names, stimulus_table, table_index  # noqa: E402

#: Length of one rate sample in the timed loop; ``lane_cps`` is the
#: median over the samples of a run.
CHUNK_SECONDS = 0.2

#: Work of the host-speed probe: integer-loop iterations and small
#: NumPy row copies (see :class:`Probe`).
PROBE_ITERATIONS = 40_000
PROBE_ROW_COPIES = 3_000
#: The probe's time on the reference host (Intel Xeon vCPU at 2.0 GHz,
#: Python 3.11, NumPy 2.4); measured rates and times are scaled to it.
PROBE_NOMINAL_S = 6.0e-3
#: Seconds of probes taken right before and right after a set-up;
#: ``setup_s`` is scaled by their median slowdown.
SETUP_PROBE_SECONDS = 0.2


#: Lanes replayed through the scalar reference: the first and the last.
def checked_lanes(lanes: int) -> Tuple[int, ...]:
    return (0, lanes - 1) if lanes > 1 else (0,)


# ----------------------------------------------------------------------
# The engine and the testbench loop
# ----------------------------------------------------------------------
def build_engine(workload: Workload, source: str):
    from repro import BatchSimulator, ShardedBatchSimulator

    if workload.shard is None:
        return BatchSimulator(source, lanes=workload.lanes, kernel=workload.kernel)
    return ShardedBatchSimulator(
        source, lanes=workload.lanes, kernel=workload.kernel, **workload.shard
    )


def close_engine(sim) -> None:
    close = getattr(sim, "close", None)
    if close is not None:
        close()


def drive(sim, row, outputs: Sequence[str]) -> List[List[int]]:
    """One testbench cycle: poke every input, peek every output (which
    settles), then commit with ``step(1)``."""
    for name, values in row:
        sim.poke(name, values)
    observed = [sim.peek(name) for name in outputs]
    sim.step(1)
    return observed


class Probe:
    """A fixed piece of work timed between measurements.

    Other tenants of a shared host slow every process by up to 2x for
    seconds at a time.  The probe -- an integer loop and small NumPy
    row copies, the interpreter-bound work that set-up and most loops
    are made of -- runs between measurements, and the ratio of its time
    to its nominal time tracks the host's current speed.

    Its working set is 128 KiB of its own.  Timed right after a loop
    sample of rocket-cold-b256 (a 10 MB value plane), its first pass
    takes its steady time, so the engine's footprint does not reach it.
    """

    def __init__(self) -> None:
        import numpy

        self._plane = numpy.zeros((1000, 16), dtype=numpy.uint64)

    def _work(self) -> None:
        total = 0
        for value in range(PROBE_ITERATIONS):
            total += value * value
        plane, rows = self._plane, len(self._plane)
        for index in range(PROBE_ROW_COPIES):
            plane[(index * 7) % rows] = plane[index % rows].copy()

    def slowdown(self) -> float:
        """The probe's time now over its nominal time."""
        start = time.perf_counter()
        self._work()
        return (time.perf_counter() - start) / PROBE_NOMINAL_S

    def slowdowns(self, seconds: float) -> List[float]:
        """Slowdowns of back-to-back probes for ``seconds``."""
        deadline = time.perf_counter() + seconds
        samples = [self.slowdown()]
        while time.perf_counter() < deadline:
            samples.append(self.slowdown())
        return samples


def loop_rate(workload: Workload, rates: Sequence[float],
              slowdowns: Sequence[float]) -> float:
    """The median of the sample rates, each scaled to the nominal host
    speed by the slowdown of the probe taken right after it, or unscaled
    where ``Workload.scale_loop`` is false."""
    if not workload.scale_loop:
        return statistics.median(rates)
    return statistics.median(r * s for r, s in zip(rates, slowdowns))


@dataclasses.dataclass
class LoopResult:
    next_cycle: int
    #: Wall time of the cycles driven (probes excluded).
    wall_s: float
    #: Lane-cycles/s of each ``CHUNK_SECONDS`` sample.
    rates: List[float]
    #: The probe's slowdown taken right after each sample.
    slowdowns: List[float]


def timed_loop(sim, table, outputs, workload, first_cycle, seconds, record,
               probe: Probe) -> LoopResult:
    """Drive cycles from ``first_cycle`` for at least ``seconds``.

    After each ``CHUNK_SECONDS`` sample the probe runs once, outside the
    sample (see :func:`loop_rate`).
    The sampled lanes' outputs are appended to ``record`` for the
    oracle check.
    """
    lanes = workload.lanes
    lanes_checked = checked_lanes(lanes)
    clock = time.perf_counter
    cycle = first_cycle
    rates: List[float] = []
    slowdowns: List[float] = []
    wall = 0.0
    deadline = clock() + seconds
    chunk_start = clock()
    chunk_cycles = 0
    while True:
        observed = drive(sim, table[table_index(cycle)], outputs)
        record.append([tuple(values[lane] for values in observed)
                       for lane in lanes_checked])
        cycle += 1
        chunk_cycles += 1
        now = clock()
        if now - chunk_start >= CHUNK_SECONDS:
            rate = lanes * chunk_cycles / (now - chunk_start)
            wall += now - chunk_start
            rates.append(rate)
            slowdowns.append(probe.slowdown())
            if now >= deadline:
                return LoopResult(cycle, wall, rates, slowdowns)
            chunk_start, chunk_cycles = clock(), 0


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def scalar_reference(source, table, outputs, lane, cycles) -> List[Tuple[int, ...]]:
    """Lane ``lane``'s outputs for ``cycles`` cycles from the scalar
    simulator with the SU kernel -- the oracle."""
    from repro import Simulator

    sim = Simulator(source, kernel="SU")
    observed = []
    for cycle in range(cycles):
        for name, values in table[table_index(cycle)]:
            sim.poke(name, values[lane])
        observed.append(tuple(sim.peek(name) for name in outputs))
        sim.step(1)
    return observed


def count_mismatches(record, references) -> int:
    """Lane-cycles whose outputs differ from the reference; ``record``
    holds per-cycle ``[outputs of each checked lane]``, ``references``
    one output list per checked lane."""
    failed = 0
    for position, reference in enumerate(references):
        if len(reference) != len(record):
            raise ValueError("reference and record differ in length")
        for observed, expected in zip(record, reference):
            if observed[position] != expected:
                failed += 1
    return failed


def engine_description(workload: Workload, sim) -> Dict[str, object]:
    if workload.shard is None:
        return {
            "kernel": sim.kernel.name,
            "backend": sim.backend,
            "transport": "local",
            "compiled_fallback": getattr(sim.kernel, "compiled_fallback", None),
        }
    return {
        "kernel": ",".join(sim.describe_partitions()),
        "backend": ",".join(d.split("/")[0] for d in sim.describe_partitions()),
        "transport": sim.transport,
        "compiled_fallback": None,
    }


def engine_problems(workload: Workload, description, cache_stats, new_entries) -> List[str]:
    """Reasons this run measured something else than the workload names:
    a compiled-kernel fallback, or cache state that contradicts the
    workload's cold/warm start."""
    problems = []
    if workload.kernel == "compiled":
        if description["compiled_fallback"]:
            problems.append(f"compiled kernel fell back: {description['compiled_fallback']}")
        kernels = description["kernel"].split(",")
        if workload.shard is None:
            ok = all(k.startswith("compiled") for k in kernels)
        else:
            ok = all(k.endswith("/compiled") for k in kernels)
        if not ok:
            problems.append(f"kernel is not compiled: {description['kernel']}")
    if workload.cache == "cold" and cache_stats["hits"]:
        problems.append(f"cold start recorded {cache_stats['hits']} cache hits")
    if workload.cache == "warm":
        if cache_stats["misses"]:
            problems.append(f"warm start recorded {cache_stats['misses']} cache misses")
        if new_entries:
            problems.append(f"warm start stored {new_entries} new cache entries")
    return problems


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Tracing hooks
# ----------------------------------------------------------------------
def trace_setup(tracer, cache, sizes: Dict[str, float]) -> None:
    """Trace the pipeline stages and the artifact cache for a set-up."""
    import repro.batch.kernels as batch_kernels
    import repro.kernels.fiberwalk as fiberwalk
    import repro.lower.cbackend as cbackend
    import repro.lower.program as program
    import repro.shard.simulator as shard_simulator
    import repro.sim.simulator as sim_module

    for attr, name in (("parse", "firrtl.parse"), ("elaborate", "firrtl.elaborate"),
                       ("build_dfg", "graph.build"), ("optimize", "graph.optimize"),
                       ("build_oim", "oim.build")):
        tracer.patch(sim_module, attr, name)

    def records(result):
        sizes["lower.records"] = result.num_records

    for module in (program, batch_kernels, fiberwalk):
        tracer.patch(module, "lower_program", "lower.program", on_result=records)
    tracer.patch(cbackend, "emit_c", "lower.emit_c",
                 on_result=lambda text: sizes.__setitem__("lower.c_bytes", len(text)))
    tracer.patch(cbackend, "compile_shared_object", "lower.cc",
                 on_result=lambda so: sizes.__setitem__("lower.so_bytes", len(so)))
    tracer.patch(shard_simulator, "partition_graph", "repcut.partition")
    tracer.patch(cache, "get", "artifacts.get")
    tracer.patch(cache, "put", "artifacts.put")


def trace_loop(tracer, workload: Workload, sim) -> None:
    """Trace the engine's public per-cycle calls."""
    if workload.shard is None:
        tracer.patch(sim, "poke", "batch.poke")
        tracer.patch(sim, "peek", "batch.peek")
        tracer.patch(sim, "step", "batch.commit")
        tracer.patch(sim.kernel, "eval_comb", "batch.settle")
    else:
        tracer.patch(sim, "poke", "shard.poke")
        tracer.patch(sim, "peek", "shard.peek")
        tracer.patch(sim, "step", "shard.coord")
        tracer.patch(sim.executor, "step_collect", "shard.step_collect")
        tracer.patch(sim.executor, "apply_sync", "shard.apply_sync")
        # In-process partitions (serial executor): their kernels too.
        for partition in getattr(sim.executor, "sims", ()):
            tracer.patch(partition.kernel, "eval_comb", "batch.settle")


SETUP_LAYERS = (
    "firrtl.parse", "firrtl.elaborate", "graph.build", "graph.optimize",
    "oim.build", "lower.program", "lower.emit_c", "lower.cc",
    "artifacts.get", "artifacts.put", "repcut.partition",
)
LOOP_LAYERS = (
    "batch.settle", "batch.commit", "batch.poke", "batch.peek",
    "shard.poke", "shard.peek", "shard.step_collect", "shard.apply_sync",
    "shard.coord",
)


def _activity_counters(sim):
    stats = sim.activity_stats() if callable(sim.activity_stats) else sim.activity_stats
    return None if stats is None else dataclasses.replace(stats)


def _skip_rates(before, after) -> Tuple[float, float]:
    if before is None or after is None:
        return 0.0, 0.0
    ops_skipped = after.ops_skipped - before.ops_skipped
    ops = ops_skipped + after.ops_evaluated - before.ops_evaluated
    lanes_skipped = after.lanes_skipped - before.lanes_skipped
    lanes = lanes_skipped + after.lanes_active - before.lanes_active
    return (ops_skipped / ops if ops else 0.0,
            lanes_skipped / lanes if lanes else 0.0)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_prep(args) -> int:
    from repro.designs.registry import get_design

    workload = WORKLOADS[args.workload]
    source = get_design(workload.design)
    outputs = output_names(source)
    table = stimulus_table(workload, args.seed)
    with open(args.inputs, "wb") as handle:
        pickle.dump({"source": source, "outputs": outputs, "table": table}, handle)
    if workload.cache == "warm":
        sim = build_engine(workload, source)
        try:
            drive(sim, table[0], outputs)
        finally:
            close_engine(sim)
    return 0


def cmd_measure(args) -> int:
    from repro.serve import artifacts

    workload = WORKLOADS[args.workload]
    with open(args.inputs, "rb") as handle:
        inputs = pickle.load(handle)
    source, outputs, table = inputs["source"], inputs["outputs"], inputs["table"]
    cache = artifacts.get_cache()
    if cache is None:
        raise SystemExit("REPRO_CACHE_DIR must name the artifact cache")
    entries_before = len(cache.entries())

    tracer = None
    sizes: Dict[str, float] = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{workload.name}-{os.getpid()}")
        trace_setup(tracer, cache, sizes)

    record: List[list] = []
    lanes_checked = checked_lanes(workload.lanes)
    probe = Probe()
    slowdowns = probe.slowdowns(SETUP_PROBE_SECONDS)
    start = time.perf_counter()
    sim = build_engine(workload, source)
    try:
        observed = drive(sim, table[0], outputs)
        setup_s = time.perf_counter() - start
        # Taken before the oracle record grows.
        result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        slowdowns += probe.slowdowns(SETUP_PROBE_SECONDS)
        result["setup_slowdown"] = statistics.median(slowdowns)
        record.append([tuple(values[lane] for values in observed)
                       for lane in lanes_checked])
        result.update(_loop(args, workload, sim, table, outputs, record,
                            probe, tracer, sizes))
        result["engine"] = engine_description(workload, sim)
    finally:
        close_engine(sim)
        if tracer is not None:
            tracer.unpatch_all()
    stats = cache.stats.as_dict()
    result["cache"] = stats
    new_entries = len(cache.entries()) - entries_before
    problems = engine_problems(workload, result["engine"], stats, new_entries)

    cycles = result["cycles"]
    references = [scalar_reference(source, table, outputs, lane, cycles)
                  for lane in lanes_checked]
    mismatches = count_mismatches(record, references)
    result["attempted"] = workload.lanes * cycles
    # An engine that measured something else fails every lane-cycle.
    result["failed"] = result["attempted"] if problems else mismatches
    if mismatches:
        problems.append(f"{mismatches} sampled lane-cycles differ from the scalar reference")
    result["problems"] = problems
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


def _loop(args, workload, sim, table, outputs, record, probe, tracer,
          sizes) -> Dict[str, object]:
    if tracer is None:
        loop = timed_loop(sim, table, outputs, workload, 1, args.seconds,
                          record, probe)
        return {"cycles": loop.next_cycle, "rates": loop.rates,
                "slowdowns": loop.slowdowns}

    # Traced run: half the time untraced, then half traced, so both
    # rates come from the same process and the same warm state.
    setup_times = tracer.self_times()
    plain = timed_loop(sim, table, outputs, workload, 1, args.seconds / 2,
                       record, probe)
    trace_loop(tracer, workload, sim)
    mark = len(tracer.spans)
    activity_before = _activity_counters(sim)
    shard_before = _shard_counters(sim) if workload.shard else None
    traced = timed_loop(sim, table, outputs, workload, plain.next_cycle,
                        args.seconds / 2, record, probe)
    traced_cycles = traced.next_cycle - plain.next_cycle
    loop_times = tracer.self_times(mark)
    counts = tracer.counts(mark)
    per_cycle = {name: loop_times.get(name, 0.0) / traced_cycles * 1e6
                 for name in LOOP_LAYERS}
    layers: Dict[str, float] = {}
    for name in SETUP_LAYERS:
        layers[f"{name}_s"] = setup_times.get(name, 0.0)
    for key in ("lower.records", "lower.c_bytes", "lower.so_bytes"):
        layers[key] = sizes.get(key, 0)
    for name in LOOP_LAYERS:
        layers[f"{name}_us"] = per_cycle[name]
    layers["batch.settles"] = counts.get("batch.settle", 0) / traced_cycles
    op_skip, lane_skip = _skip_rates(activity_before, _activity_counters(sim))
    layers["activity.op_skip_rate"] = op_skip
    layers["activity.lane_skip_rate"] = lane_skip
    if workload.shard:
        after = _shard_counters(sim)
        worker_max = (after[0] - shard_before[0]) / traced_cycles * 1e6
        layers["repcut.replication"] = sim.replication_overhead
        layers["shard.worker_max_us"] = worker_max
        layers["shard.transport_wait_us"] = per_cycle["shard.step_collect"] - worker_max
        layers["shard.rows_sent"] = (after[1] - shard_before[1]) / traced_cycles
        layers["shard.rows_suppressed"] = (after[2] - shard_before[2]) / traced_cycles
    else:
        for key in ("repcut.replication", "shard.worker_max_us",
                    "shard.transport_wait_us", "shard.rows_sent",
                    "shard.rows_suppressed"):
            layers[key] = 0.0
    covered = tracer.top_level_time(mark)
    layers["loop.other_us"] = (traced.wall_s - covered) / traced_cycles * 1e6
    return {
        "cycles": traced.next_cycle,
        "lane_cps": loop_rate(workload, plain.rates, plain.slowdowns),
        "lane_cps_traced": loop_rate(workload, traced.rates, traced.slowdowns),
        "layers": layers,
    }


def _shard_counters(sim) -> Tuple[float, int, int]:
    return sim.step_max_seconds, sim.sync_sent, sim.sync_suppressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    prep = sub.add_parser("prep")
    measure = sub.add_parser("measure")
    for command in (prep, measure):
        command.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        command.add_argument("--inputs", required=True)
    prep.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, default=1.0)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.command == "prep":
        return cmd_prep(args)
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
