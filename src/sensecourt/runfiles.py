"""simulate's run files, written while a replication runs.

RunFiles is the engine's Recorder with a buffer of about _BLOCK_CELLS
(slot, user) cells over all lanes. Each flush writes its block to every
lane's trace.csv and plotdata_alloc_prob.csv; the last also writes
plotdata_welfare.csv and plotdata_dropping.csv from the (T,) welfare
series and drop events the recorder keeps. So only one slot, one block of
rows and each lane's welfare series are in memory, whatever T is. Floats
carry 9 significant digits, formatted once per distinct value through
caches keyed on each float's int64 bit pattern, so -0.0 still prints -0
and NaN payloads keep keys of their own.
"""

from __future__ import annotations

import itertools
import operator
import struct
from pathlib import Path

import numpy as np

from .engine import Recorder

__all__ = ["RunFiles", "write_plotdata", "write_trace_csv"]

# (slot, user) cells of every lane held before a block of slots is written
_BLOCK_CELLS = 2048
# trace cells kept per block; an auction lane's payments seldom repeat
_TRACE_CACHE_CELLS = 1024
_BITS, _FLOAT = struct.Struct("=q"), struct.Struct("=d")


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _float_of(bits: int) -> float:
    """The float64 whose int64 bit pattern is `bits`."""
    return _FLOAT.unpack(_BITS.pack(bits))[0]


class _CellText(dict):
    """A trace cell's text "sel,reg,pay,act,", keyed on (selected, regulation
    bits, payment bits, active) and formatted the first time it is read."""

    def __missing__(self, key):
        sel, reg, pay, act = key
        text = self[key] = f"{sel},{_fmt(_float_of(reg))},{_fmt(_float_of(pay))},{act},"
        return text


class RunFiles(Recorder):
    """The run files of one replication's lanes, a run directory each,
    written as the run records its slots.

    Files are opened when the run starts, after run_policy's checks, under a
    ".part" name; leaving the `with` block renames them, or removes them if
    the run raised, so a failed run leaves no partial file.
    """

    def __init__(self, run_dirs: list[Path], labels: list[str], replication: int):
        self.run_dirs, self.labels, self.replication = run_dirs, labels, replication
        self.trace, self.alloc_prob, self.parts = [], [], []

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        for f in self.trace + self.alloc_prob:
            f.close()
        for part in self.parts:
            if kind is None:
                part.replace(part.with_suffix(""))
            else:
                part.unlink(missing_ok=True)

    def part(self, run_dir: Path, name: str) -> Path:
        path = run_dir / f"{name}.part"
        self.parts.append(path)
        return path

    def height(self, lanes: int, n: int, t_slots: int) -> int:
        return max(1, _BLOCK_CELLS // (lanes * n))

    def start(self, lanes: int, n: int, t_slots: int, paying: tuple[int, ...]) -> None:
        super().start(lanes, n, t_slots, paying)
        self.users = [f"{u}," for u in range(n)]
        header = "slot," + ",".join(f"u{u}" for u in range(n)) + "\n"
        for run_dir in self.run_dirs:
            run_dir.mkdir(parents=True, exist_ok=True)
            # unbuffered: each block is one write, and 2 L buffers would idle
            self.trace.append(self.part(run_dir, "trace.csv").open("wb", buffering=0))
            self.trace[-1].write(
                b"slot,policy,replication,user,selected,regulation,payment,active,welfare_slot\n"
            )
            self.alloc_prob.append(
                self.part(run_dir, "plotdata_alloc_prob.csv").open("wb", buffering=0)
            )
            self.alloc_prob[-1].write(header.encode())

    def flush(self) -> None:
        """Write the block's rows, and with the last block the whole files."""
        write_trace_csv(self)
        write_plotdata(self)


def write_trace_csv(run: RunFiles) -> None:
    """The trace.csv rows of every lane's block: one tolist() of each series
    per lane and block, then one slot's rows at a time, each distinct cell
    formatted once. No slot's rows are sorted or kept.

    The cell cache is the block's, shared by its lanes (a cell's text is the
    same in every lane). One kept for the whole run stays alive among the
    engine's per-slot temporaries and raised welfare_simulate's peak RSS."""
    b, lo, users, cells = run.filled, run.lo, run.users, _CellText()
    unpaid = itertools.repeat(itertools.repeat(0))  # the bits of 0.0, every row
    paid = dict(zip(run.paying, run.payments[:, :b].view(np.int64).tolist()))
    for lane, f in enumerate(run.trace):
        head = f"{run.labels[lane]},{run.replication},"
        slots = zip(
            itertools.count(lo + 1),
            run.welfare[lane, lo : lo + b].tolist(),
            run.selected[lane, :b].view(np.int8).tolist(),
            run.regulation[lane, :b].view(np.int64).tolist(),
            paid.get(lane, unpaid),
            run.active[lane, :b].view(np.int8).tolist(),
        )
        parts = []
        for t, welfare, *keys in slots:
            if len(cells) > _TRACE_CACHE_CELLS:
                cells.clear()
            first, tail = f"{t},{head}", f"{_fmt(welfare)}\n"
            rows = map(operator.add, users, map(cells.__getitem__, zip(*keys)))
            parts.append(first + (tail + first).join(rows) + tail)
        f.write("".join(parts).encode())


def write_plotdata(run: RunFiles) -> None:
    """The plotdata_alloc_prob.csv rows of every lane's block, each distinct
    value of a lane's block formatted once (a running frequency seldom
    repeats a value across blocks); with the run's last block, also
    plotdata_welfare.csv and plotdata_dropping.csv from the kept welfare
    series and drop events.

    A block's distinct values are a set of their int64 bits (-0.0 and 0.0
    print differently). np.unique(bits, return_inverse=True) builds the
    text about 1.4x faster, but its sort kernels are code no other part of a
    run touches: they add 0.25-0.5 MB to a simulate process's peak RSS."""
    b, lo, n = run.filled, run.lo, len(run.users)
    for lane, f in enumerate(run.alloc_prob):
        keys = run.prob[lane, :b].view(np.int64).ravel().tolist()
        distinct = list(set(keys))
        values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
        texts = dict(zip(distinct, map(format, values, itertools.repeat(".9g"))))
        cells = list(map(texts.__getitem__, keys))
        # a row's last cell also ends it and starts the next one
        ends = cells[n - 1 : -1 : n]
        cells[n - 1 : -1 : n] = [f"{c}\n{k}" for k, c in enumerate(ends, start=lo + 2)]
        f.write(f"{lo + 1},{','.join(cells)}\n".encode())
    t = run.t_slots
    if lo + b < t:
        return
    slots = range(1, t + 1)
    for run_dir, welfare, events in zip(run.run_dirs, run.welfare, run.drop_events):
        running = np.cumsum(welfare) / np.arange(1, t + 1)
        with run.part(run_dir, "plotdata_welfare.csv").open("w") as f:
            f.write("slot,welfare,running_avg\n")
            f.writelines(map("{},{:.9g},{:.9g}\n".format, slots, welfare, running))
        dropped = np.zeros(t)
        for _, slot in events:
            dropped[slot - 1 :] += 1
        with run.part(run_dir, "plotdata_dropping.csv").open("w") as f:
            f.write("slot,dropped_fraction\n")
            f.writelines(map("{},{:.9g}\n".format, slots, dropped / n))
