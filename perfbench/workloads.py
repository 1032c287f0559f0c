"""The benchmark's workloads and their pre-generated stimulus tables.

A workload names a registry design, the engine that simulates it, the
lane count B and whether the artifact cache starts empty (``cold``) or
prepared (``warm``).  Its stimulus is generated once per seed, before
any measured process starts, into a table the testbench loop only
indexes: the engine sees poked values, never the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Rows in a stimulus table.  Cycles past the table wrap into its tail
#: (rows ``TABLE_PREFIX`` onward), so the reset pulse in the first rows
#: is driven exactly once however long the loop runs.
TABLE_ROWS = 1024
#: Rows driven once before the wrap; a multiple of every hold period so
#: held stimulus keeps its windows aligned across the wrap.
TABLE_PREFIX = 32

#: Hold period of the sparse stimulus (inputs change every N cycles).
SPARSE_PERIOD = 32


@dataclass(frozen=True)
class Workload:
    name: str
    design: str
    lanes: int
    kernel: str
    #: ``"cold"``: every measured process starts from an empty artifact
    #: cache.  ``"warm"``: the cache is filled by an untimed step first.
    cache: str
    #: Hold period of the stimulus; 1 drives a fresh value every cycle.
    hold: int = 1
    #: ShardedBatchSimulator keyword arguments; ``None`` selects
    #: BatchSimulator.
    shard: Optional[Dict[str, object]] = None
    #: Fresh processes per untraced run; each times one set-up and an
    #: equal share of the loop.  Loop speed differs between processes
    #: (by 30% and more on the rocket workloads), so a run pools several.
    processes: int = 5
    #: Whether ``lane_cps`` scales each loop sample by the host-speed
    #: probe taken after it (``child.Probe``).  The probe is
    #: interpreter-bound work; it tracks loops spent in Python and small
    #: NumPy calls (on a 2-vCPU Xeon host, scaling cut the spread over 5
    #: seeds from 16% to 4% on gemmini-b16, 17% to 4% on sha3-sparse-b64
    #: and 12% to 8% on rocket-shard-p2) but not a loop spent in the
    #: compiled kernel over a 10 MB plane (7% unscaled, 14% scaled on
    #: rocket-cold-b256).
    scale_loop: bool = True
    #: The loop layer the trace is expected to show as dominant.
    dominant_loop: Tuple[str, ...] = ()
    #: The set-up layer expected to dominate (cold workloads only).
    dominant_setup: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rocket-cold-b256", "rocket-1", 256, "compiled", "cold",
            processes=3,
            scale_loop=False,
            dominant_loop=("batch.settle_us",),
            dominant_setup=("lower.cc_s",),
        ),
        Workload(
            "gemmini-b16", "gemmini-8", 16, "compiled", "warm",
            dominant_loop=("batch.commit_us",),
        ),
        # The serial executor, not process/shm: on a 2-vCPU shared host
        # the process executor's rate swung 2.5k-20k lane-cycles/s from
        # run to run, pinned or not.  The exchange is still measured; the
        # transport between processes is not.
        Workload(
            "rocket-shard-p2", "rocket-1", 32, "compiled", "warm",
            shard={"num_partitions": 2, "partitioner": "refined",
                   "executor": "serial"},
            dominant_loop=("shard.poke_us", "shard.peek_us"),
        ),
        Workload(
            "sha3-sparse-b64", "sha3", 64, "activity", "warm",
            hold=SPARSE_PERIOD,
            dominant_loop=("batch.poke_us", "batch.settle_us"),
        ),
    )
}


def base_seed(seed: int) -> int:
    """The stimulus base seed of benchmark seed ``seed``."""
    return (0xB47C4 + seed * 0x2545F491) & 0xFFFFFFFF


def table_index(cycle: int) -> int:
    """The stimulus-table row driven on ``cycle``."""
    if cycle < TABLE_ROWS:
        return cycle
    span = TABLE_ROWS - TABLE_PREFIX
    return TABLE_PREFIX + (cycle - TABLE_PREFIX) % span


def stimulus_table(workload: Workload, seed: int) -> List[List[Tuple[str, List[int]]]]:
    """``TABLE_ROWS`` rows of ``[(input, lane_values), ...]``.

    A lane vector equal to the previous row's is the same list object,
    which keeps tables of mostly constant inputs small.
    """
    from repro.workloads.stimulus import (
        batched_workload_for,
        sparse_batched_workload_for,
    )

    if workload.hold > 1:
        stimulus = sparse_batched_workload_for(
            workload.design, workload.lanes, workload.hold,
            base_seed=base_seed(seed),
        )
    else:
        stimulus = batched_workload_for(
            workload.design, workload.lanes, base_seed=base_seed(seed)
        )
    recorder = _Recorder(workload.lanes)
    table: List[List[Tuple[str, List[int]]]] = []
    previous: Dict[str, List[int]] = {}
    for cycle in range(TABLE_ROWS):
        recorder.row = []
        stimulus.apply(recorder, cycle)
        row = []
        for name, values in recorder.row:
            if previous.get(name) == values:
                values = previous[name]
            previous[name] = values
            row.append((name, values))
        table.append(row)
    return table


class _Recorder:
    """Stands in for a simulator and keeps what the stimulus pokes."""

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.row: List[Tuple[str, List[int]]] = []

    def poke(self, name: str, values: List[int]) -> None:
        self.row.append((name, list(values)))


def output_names(source: str) -> List[str]:
    """The top module's output ports, in declaration order."""
    from repro.firrtl.parser import parse

    return [
        port.name for port in parse(source).top.ports
        if port.direction == "output" and not port.is_clock
    ]
