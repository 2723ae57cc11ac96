"""Virtual-queue drift-plus-penalty selection.

Each user owns a virtual queue that fills at its threshold rate and drains
when the user is selected; queue stability is equivalent to meeting the
long-run selection-frequency constraint. The per-slot rule maximizes
value - cost + sum(q_n / phi * x_n), which minimizes the standard upper
bound on drift plus phi-weighted negative welfare.
"""

from __future__ import annotations

import numpy as np

from .solver import freeze_ineligible, regulated_allocate
from .solver import solve  # noqa: F401  (instrumented by perfbench/tracer.py)
from .world import frozen_array, thresholds_array

__all__ = [
    "lyapunov_allocate",
    "queue_step",
    "queue_update",
    "penalty_bound_B",
]


# maximize value - cost + sum(q_n / phi * x_n) over eligible users: bonus q / phi
lyapunov_allocate = regulated_allocate


def queue_step(q: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q <- [q - x]^+ + D elementwise, x the selection flags: one arrival per slot."""
    return np.maximum(q - x, 0.0) + d


def queue_update(
    backlogs: np.ndarray,
    selected: np.ndarray,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """queue_step on one backlog row; ineligible users' q stay unchanged."""
    q = frozen_array(backlogs, "backlogs", nonneg=True)
    selected = frozen_array(selected, "selected", bool, size=q.size)
    return freeze_ineligible(queue_step(q, selected, thresholds), q, eligible)


def penalty_bound_B(thresholds: np.ndarray) -> float:
    """The constant B = sum((1 + D_n^2) / 2) of the drift bound."""
    d = thresholds_array(thresholds)
    return float(((1.0 + d * d) / 2.0).sum())
