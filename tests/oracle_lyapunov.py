"""Reference drift-plus-penalty quantities of the virtual-queue policy.

The allocation rule of `sensecourt.policy_lyapunov` must minimize the
drift-plus-penalty bound over all allocations of a slot, and the Lyapunov
function and its drift describe the queues' stability. These are the
paper's diagnostics; the tests compare the policy against them. Test
helper only.
"""

from __future__ import annotations

import numpy as np

from sensecourt.policy_lyapunov import QueueState, penalty_bound_B
from sensecourt.world import SlotRealization, evaluate_allocation


def drift_plus_penalty_diag(
    state: QueueState,
    alloc: np.ndarray,
    realization: SlotRealization,
    thresholds: np.ndarray,
) -> float:
    """Right-hand side of the drift-plus-penalty upper bound for one allocation.

    Diagnostic only: the allocation rule must minimize this quantity over
    all allocations of the slot.
    """
    d = np.asarray(thresholds, dtype=float)
    x = alloc.astype(float)
    wb = evaluate_allocation(realization, alloc)
    return float(
        penalty_bound_B(d)
        + (state.backlogs * (d - x)).sum()
        - state.phi * wb.welfare
    )


def lyapunov_function(state: QueueState) -> float:
    """J = 0.5 * sum(q_n^2)."""
    return float(0.5 * (state.backlogs * state.backlogs).sum())


def lyapunov_drift(state: QueueState, next_state: QueueState) -> float:
    """Change of the Lyapunov function across one slot."""
    return lyapunov_function(next_state) - lyapunov_function(state)
