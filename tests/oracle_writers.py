"""Reference CSV writers: one format() call per cell.

`sensecourt.runfiles.write_trace_csv` and `write_plotdata` format each
distinct value once, from caches keyed on its int64 bit pattern; every byte
they write must equal what write_per_cell writes. write_run feeds a
collected run through them. Test and benchmark helpers only: write_per_cell
holds each whole file in memory.
"""

from pathlib import Path

import numpy as np

from sensecourt.engine import TraceMetrics
from sensecourt.runfiles import RunFiles


def _fmt_cell(x) -> str:
    return format(float(x), ".9g")


def write_per_cell(run_dir: Path, metrics: TraceMetrics) -> None:
    """trace.csv and the three plotdata files of one run, one format() call
    per cell. The reference for write_trace_csv and write_plotdata."""
    n, t = metrics.thresholds.size, metrics.t_slots
    payments = metrics.payments_series
    lines = ["slot,policy,replication,user,selected,regulation,payment,active,welfare_slot"]
    for k in range(t):
        welfare = _fmt_cell(metrics.welfare_series[k])
        for u in range(n):
            pay = payments[k, u] if payments is not None else 0.0
            lines.append(
                f"{k + 1},{metrics.policy_label},{metrics.replication},{u},"
                f"{int(metrics.selected[k, u])},{_fmt_cell(metrics.regulation[k, u])},"
                f"{_fmt_cell(pay)},{int(metrics.active[k, u])},{welfare}"
            )
    (run_dir / "trace.csv").write_text("\n".join(lines) + "\n")
    lines = ["slot,welfare,running_avg"] + [
        f"{k + 1},{_fmt_cell(metrics.welfare_series[k])},"
        f"{_fmt_cell(metrics.running_avg_welfare[k])}"
        for k in range(t)
    ]
    (run_dir / "plotdata_welfare.csv").write_text("\n".join(lines) + "\n")
    lines = ["slot," + ",".join(f"u{u}" for u in range(n))] + [
        f"{k + 1}," + ",".join(_fmt_cell(v) for v in metrics.alloc_prob_series[k])
        for k in range(t)
    ]
    (run_dir / "plotdata_alloc_prob.csv").write_text("\n".join(lines) + "\n")
    dropped = np.zeros(t)
    for _, slot in metrics.drop_events:
        dropped[slot - 1 :] += 1
    lines = ["slot,dropped_fraction"] + [
        f"{k + 1},{_fmt_cell(dropped[k] / n)}" for k in range(t)
    ]
    (run_dir / "plotdata_dropping.csv").write_text("\n".join(lines) + "\n")


def write_run(run_dir: Path, metrics: TraceMetrics) -> None:
    """The run files of one collected run, fed slot by slot through the
    recorder and writers simulate uses. The running average written is the
    welfare series' own, as simulate writes it, whatever
    running_avg_welfare holds."""
    n, paid = metrics.thresholds.size, metrics.payments_series
    unpaid = np.zeros((1, n))
    dropped = [[] for _ in range(metrics.t_slots)]
    for user, slot in metrics.drop_events:
        dropped[slot - 1].append((0, user))
    with RunFiles([run_dir], [metrics.policy_label], metrics.replication) as run:
        run.start(1, n, metrics.t_slots, () if paid is None else (0,))
        for k, drops in enumerate(dropped):
            row = slice(k, k + 1)
            run.record(
                k, metrics.welfare_series[row], metrics.selected[row], metrics.regulation[row],
                unpaid if paid is None else paid[row], metrics.active[row],
                metrics.alloc_prob_series[row], drops,
            )
