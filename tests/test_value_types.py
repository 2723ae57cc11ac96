"""The shared way in for per-user arrays (world.frozen_array and the
thresholds and eligibility helpers built on it): every value type and entry
point refuses non-finite floats, the wrong number of axes and, where its
field must be non-negative, negatives, with a ValueError naming the field;
what it keeps is a read-only copy that the caller's array no longer reaches.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from sensecourt.auction import BidVector, RegulationState, run_auction_slot, truthfulness_sweep
from sensecourt.baselines import VpcState, random_baseline_step
from sensecourt.benchmark import Trace
from sensecourt.cli import ExperimentConfig, load_config
from sensecourt.engine import PolicySpec, run_policy
from sensecourt.policy_dual import DualState, StepSchedule
from sensecourt.policy_lyapunov import QueueState, penalty_bound_B
from sensecourt.scenarios import MobilityState, ScenarioConfig, realization_stream
from sensecourt.solver import RegulatedInstance, SolveOptions, allocate_many
from sensecourt.world import Allocation, GridMap, SlotRealization, WeightField

from test_world import make_realization

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

REAL = make_realization(4, [{0}, {1, 2}, {2, 3}, set()], costs=[0.5, 0.25, 1.0, 0.0])
STATE = RegulationState(np.zeros(4), phi=4.0)
SCENARIO = ScenarioConfig(map=GridMap(2, 2, 100.0), n_users=4)
COSTS = np.array([0.5, 0.25, 1.0, 0.0])
MASK = np.array([True, False, True, True])
THRESHOLDS = np.array([0.0, 0.5, 1.0, 0.25])


@dataclass(frozen=True)
class Case:
    """One per-user field: the name its errors carry, valid values, a call
    taking them and, if the result keeps them, how to read them back."""

    field: str
    good: np.ndarray
    build: Callable
    kept: Callable | None = None
    nonneg: bool = False
    scalar_ok: bool = False  # a 0-D value is broadcast, not refused


CASES = {
    "WeightField.values": Case(
        "weights", np.array([0.5, 1.0, 0.0, 2.0]), WeightField, lambda o: o.values, nonneg=True
    ),
    "SlotRealization.true_costs": Case(
        "true_costs",
        COSTS,
        lambda c: SlotRealization(REAL.weights, REAL.regions, c),
        lambda o: o.true_costs,
        nonneg=True,
    ),
    "Allocation.selected": Case("selected", MASK, Allocation, lambda o: o.selected),
    "RegulatedInstance.effective_costs": Case(
        "effective_costs",
        COSTS - 0.75,
        lambda c: RegulatedInstance(REAL, c, MASK),
        lambda o: o.effective_costs,
    ),
    "RegulatedInstance.eligible": Case(
        "eligible", MASK, lambda e: RegulatedInstance(REAL, COSTS, e), lambda o: o.eligible
    ),
    "QueueState.backlogs": Case(
        "backlogs", COSTS, lambda q: QueueState(q, 2.0), lambda o: o.backlogs, nonneg=True
    ),
    "RegulationState.factors": Case(
        "factors", COSTS, lambda r: RegulationState(r, 2.0), lambda o: o.factors, nonneg=True
    ),
    "VpcState.credits": Case(
        "credits", COSTS, lambda v: VpcState(v, 1.0), lambda o: o.credits, nonneg=True
    ),
    "DualState.multipliers": Case(
        "multipliers",
        COSTS,
        lambda lam: DualState(lam, np.zeros(4, np.int64), 1, StepSchedule()),
        lambda o: o.multipliers,
        nonneg=True,
    ),
    "DualState.cumulative_selected": Case(
        "cumulative_selected",
        np.array([0, 3, 9, 1], dtype=np.int64),
        lambda cum: DualState(np.zeros(4), cum, 10, StepSchedule()),
        lambda o: o.cumulative_selected,
        nonneg=True,
    ),
    "BidVector.bids": Case("bids", COSTS, BidVector, lambda o: o.bids, nonneg=True),
    "MobilityState.positions": Case(
        "positions", np.array([[0.0, 10.0], [-5.0, 2.5]]), MobilityState, lambda o: o.positions
    ),
    "Trace.thresholds": Case(
        "thresholds",
        THRESHOLDS,
        lambda d: Trace((REAL, REAL), d),
        lambda o: o.thresholds,
        nonneg=True,
    ),
    "ExperimentConfig.thresholds": Case(
        "thresholds",
        THRESHOLDS,
        lambda d: ExperimentConfig(scenario=SCENARIO, t_slots=1, thresholds=d),
        lambda o: o.thresholds,
        nonneg=True,
        scalar_ok=True,
    ),
    "run_policy.thresholds": Case(
        "thresholds",
        THRESHOLDS,
        lambda d: run_policy([REAL], PolicySpec("lyapunov"), d, warmup_slots=0),
        lambda o: o.thresholds,
        nonneg=True,
    ),
    "penalty_bound_B.thresholds": Case("thresholds", THRESHOLDS, penalty_bound_B, nonneg=True),
    "allocate_many.charges": Case(
        "charges", np.stack([COSTS, COSTS - 0.75]), lambda c: allocate_many(REAL, c, MASK)
    ),
    "allocate_many.eligible": Case(
        "eligible", MASK, lambda e: allocate_many(REAL, COSTS[None], e)
    ),
    "run_auction_slot.factors": Case(
        "factors", COSTS, lambda r: run_auction_slot(r, REAL, BidVector(COSTS)), nonneg=True
    ),
    "run_auction_slot.eligible": Case(
        "eligible", MASK, lambda e: run_auction_slot(STATE.factors, REAL, BidVector(COSTS), e)
    ),
    "truthfulness_sweep.true_costs": Case(
        "true_costs",
        COSTS,
        lambda c: truthfulness_sweep(REAL, STATE, c, 0, np.linspace(0.0, 1.0, 5)),
        nonneg=True,
    ),
    "truthfulness_sweep.bid_grid": Case(
        "bid_grid",
        np.linspace(0.0, 1.5, 5),
        lambda b: truthfulness_sweep(REAL, STATE, COSTS, 0, b),
        lambda o: o.bid_grid,
        nonneg=True,
    ),
    "truthfulness_sweep.eligible": Case(
        "eligible",
        MASK,
        lambda e: truthfulness_sweep(REAL, STATE, COSTS, 0, np.linspace(0.0, 1.0, 5), e),
    ),
    "random_baseline_step.eligible": Case(
        "eligible", MASK, lambda e: random_baseline_step(REAL, e, np.random.default_rng(0))
    ),
}

FLOAT_CASES = [name for name, case in CASES.items() if case.good.dtype.kind == "f"]
NONNEG_CASES = [name for name, case in CASES.items() if case.nonneg]
SIGNED_CASES = [name for name in FLOAT_CASES if not CASES[name].nonneg]
KEPT_CASES = [name for name, case in CASES.items() if case.kept is not None]


def refused(case: Case, values) -> None:
    with pytest.raises(ValueError, match=re.escape(case.field)):
        case.build(values)


@pytest.mark.parametrize("name", FLOAT_CASES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_refused(name, bad):
    case = CASES[name]
    values = case.good.copy()
    values.flat[-1] = bad
    refused(case, values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_wrong_ndim_refused(name):
    case = CASES[name]
    refused(case, case.good[None])
    if not case.scalar_ok:
        refused(case, case.good.flat[0] if case.good.ndim == 1 else case.good[0, 0])


@pytest.mark.parametrize("name", [name for name in CASES if CASES[name].field == "eligible"])
@pytest.mark.parametrize("size", [3, 5])
def test_mask_of_another_length_refused(name, size):
    refused(CASES[name], np.ones(size, dtype=bool))


@pytest.mark.parametrize("name", NONNEG_CASES)
def test_negative_refused(name):
    case = CASES[name]
    values = case.good.copy()
    values.flat[1] = -1
    refused(case, values)


@pytest.mark.parametrize("name", SIGNED_CASES)
def test_negative_accepted_where_allowed(name):
    case = CASES[name]
    values = case.good.copy()
    values.flat[1] = -1.0
    case.build(values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_good_values_accepted(name):
    CASES[name].build(CASES[name].good.copy())


@pytest.mark.parametrize("name", KEPT_CASES)
def test_kept_array_is_a_read_only_copy(name):
    case = CASES[name]
    values = case.good.copy()
    kept = case.kept(case.build(values))
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept.flat[0] = kept.flat[1]
    values.flat[0] = not values.flat[0] if values.dtype == bool else values.flat[0] + 1
    np.testing.assert_array_equal(kept, case.good)


class TestLedgersRefuseNonFinite:
    def test_nan_backlog(self):
        with pytest.raises(ValueError, match="backlogs must be finite"):
            QueueState([np.nan], 1.0)

    def test_inf_factor(self):
        with pytest.raises(ValueError, match="factors must be finite"):
            RegulationState([np.inf], 1.0)

    def test_two_dimensional_backlogs(self):
        with pytest.raises(ValueError, match="backlogs must be a 1-D array"):
            QueueState([[1.0, 2.0]], 1.0)

    def test_nan_threshold_in_the_penalty_bound(self):
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            penalty_bound_B([0.5, np.nan])


def welfare_desk_slot():
    """The first slot of configs/welfare_desk.json: 8 users on 100 grids."""
    scenario = load_config(CONFIGS / "welfare_desk.json").scenario
    return next(iter(realization_stream(scenario, 1)))


ROUTES = {
    "exact": SolveOptions("exact"),
    "greedy": SolveOptions("greedy"),
    "bnb": SolveOptions("bnb"),
    "auto": SolveOptions("auto"),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize(
    "bad, match",
    [
        ("nan_charge", "charges must be finite"),
        ("nine_columns", "charges"),
        ("ten_flags", "eligible"),
        ("seven_flags", "eligible"),
    ],
    ids=["nan_charge", "nine_columns", "ten_flags", "seven_flags"],
)
def test_allocate_many_refuses_bad_input_on_every_route(route, bad, match):
    real = welfare_desk_slot()
    assert real.n_users == 8
    charges = real.true_costs[None].copy()
    eligible = np.ones(8, dtype=bool)
    if bad == "nan_charge":
        charges[0, 3] = np.nan
    elif bad == "nine_columns":
        charges = np.append(charges, [[0.0]], axis=1)
    else:
        eligible = np.ones(10 if bad == "ten_flags" else 7, dtype=bool)
    with pytest.raises(ValueError, match=match):
        allocate_many(real, charges, eligible, ROUTES[route])
