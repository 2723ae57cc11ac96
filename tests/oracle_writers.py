"""Reference CSV writers: one format() call per cell.

`sensecourt.cli.write_trace_csv` and `write_plotdata` format each distinct
value once, from caches keyed on its int64 bit pattern; every byte they
write must equal what this writes. Test and benchmark helper only: it
holds each whole file in memory.
"""

from pathlib import Path

import numpy as np

from sensecourt.engine import TraceMetrics


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
