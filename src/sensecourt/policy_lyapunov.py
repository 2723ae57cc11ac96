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
from .world import Allocation

__all__ = [
    "QueueState",
    "lyapunov_allocate",
    "queue_update",
    "penalty_bound_B",
]


@dataclass(frozen=True, eq=False)
class QueueState:
    """Virtual queue backlogs and the stability/welfare trade-off knob phi."""

    backlogs: np.ndarray
    phi: float

    def __post_init__(self):
        q = np.array(self.backlogs, dtype=float, copy=True)
        if np.any(q < 0):
            raise ValueError("backlogs must be non-negative")
        if not self.phi > 0:
            raise ValueError("phi must be positive")
        q.flags.writeable = False
        object.__setattr__(self, "backlogs", q)

    @property
    def bonus(self) -> np.ndarray:
        """The amount taken off each user's cost: q_n / phi."""
        return self.backlogs / self.phi

    @classmethod
    def initial(cls, n_users: int, phi: float) -> "QueueState":
        return cls(backlogs=np.zeros(n_users), phi=phi)


# maximize value - cost + sum(q_n / phi * x_n) over eligible users
lyapunov_allocate = regulated_allocate


def queue_update(
    state: QueueState,
    alloc: Allocation,
    thresholds: np.ndarray,
    eligible: np.ndarray | None = None,
) -> QueueState:
    """q <- [q - x]^+ + D, one virtual arrival per slot; ineligible users' q stay unchanged."""
    x = alloc.selected.astype(float)
    q = np.maximum(state.backlogs - x, 0.0) + np.asarray(thresholds, dtype=float)
    q = freeze_ineligible(q, state.backlogs, eligible)
    return QueueState(backlogs=q, phi=state.phi)


def penalty_bound_B(thresholds: np.ndarray) -> float:
    """The constant B = sum((1 + D_n^2) / 2) of the drift bound."""
    d = np.asarray(thresholds, dtype=float)
    if d.size and (np.any(d < 0) or np.any(d > 1)):
        raise ValueError("thresholds must lie in [0, 1]")
    return float(((1.0 + d * d) / 2.0).sum())
