"""Virtual-queue drift-plus-penalty selection.

Each user owns a virtual queue that fills at its threshold rate and drains
when the user is selected; queue stability is equivalent to meeting the
long-run selection-frequency constraint. The per-slot rule maximizes
value - cost + sum(q_n / phi * x_n), which minimizes the standard upper
bound on drift plus phi-weighted negative welfare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import freeze_ineligible, regulated_allocate
from .solver import solve  # noqa: F401  (instrumented by perfbench/tracer.py)
from .world import frozen_array, thresholds_array

__all__ = [
    "QueueState",
    "lyapunov_allocate",
    "queue_step",
    "queue_update",
    "penalty_bound_B",
]


@dataclass(frozen=True, eq=False)
class QueueState:
    """Virtual queue backlogs and the stability/welfare trade-off knob phi."""

    backlogs: np.ndarray
    phi: float

    def __post_init__(self):
        if not (0 < self.phi < np.inf and 1 / float(self.phi) < np.inf):  # NaN fails
            raise ValueError("phi must be a finite number > 0 whose inverse is finite")
        object.__setattr__(self, "backlogs", frozen_array(self.backlogs, "backlogs", nonneg=True))

    @property
    def bonus(self) -> np.ndarray:
        """The amount taken off each user's cost: q_n / phi."""
        return self.backlogs / self.phi

    @classmethod
    def initial(cls, n_users: int, phi: float) -> "QueueState":
        return cls(backlogs=np.zeros(n_users), phi=phi)


# maximize value - cost + sum(q_n / phi * x_n) over eligible users
lyapunov_allocate = regulated_allocate


def queue_step(q: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q <- [q - x]^+ + D elementwise, x the selection flags: one arrival per slot."""
    return np.maximum(q - x, 0.0) + d


def queue_update(
    state: QueueState,
    selected: np.ndarray,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> QueueState:
    """queue_step on one state; ineligible users' q stay unchanged."""
    selected = frozen_array(selected, "selected", bool, size=state.backlogs.size)
    q = queue_step(state.backlogs, selected, thresholds)
    return QueueState(backlogs=freeze_ineligible(q, state.backlogs, eligible), phi=state.phi)


def penalty_bound_B(thresholds: np.ndarray) -> float:
    """The constant B = sum((1 + D_n^2) / 2) of the drift bound."""
    d = thresholds_array(thresholds)
    return float(((1.0 + d * d) / 2.0).sum())
