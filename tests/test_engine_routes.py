"""run_policy against the per-lane reference engine on the greedy and bnb routes.

tests/test_engine_oracle.py draws runs in the exact and auto modes. Here the
same runs go through greedy mode, and through bnb mode with a node budget
small enough that some searches stop before they finish; the greedy policy
stays on the greedy route and the auction on the exact one, so a slot mixes
routes over one eligible set. Every per-slot array, the drop events and the
payments must agree bit for bit with each lane run alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import sensecourt.solver as solver_mod
from sensecourt.engine import PolicySpec, run_policy
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import SolveOptions
from sensecourt.world import GridMap

from test_engine_oracle import assert_matches_oracle, runs

BNB_BUDGET = 3
MODES = {
    "greedy": SolveOptions(mode="greedy"),
    "bnb": SolveOptions(mode="bnb", node_budget=BNB_BUDGET),
}


def welfare_mix(solver: SolveOptions) -> dict:
    """The welfare desk's policy mix at 6 users, with users dropping."""
    scenario = ScenarioConfig(
        map=GridMap(6, 6, 200.0), n_users=6, radius_min_m=200.0,
        radius_max_m=500.0, cost_to_weight_ratio=1.0, seed=5,
    )
    specs = [
        PolicySpec("lyapunov", phi=20), PolicySpec("lyapunov", phi=10),
        PolicySpec("auction", phi=10), PolicySpec("dual", schedule=StepSchedule.harmonic(5)),
        PolicySpec("radp_vpc", alpha=1.0), PolicySpec("radp_vpc", alpha=0.2),
        PolicySpec("greedy"), PolicySpec("random"),
    ]
    return dict(
        slots=list(realization_stream(scenario, 40)), specs=specs,
        thresholds=np.full(6, 0.5), warmup=5, solver=solver, seed=5, dropping=True,
    )


class TestRoutesMatchOracle:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @settings(max_examples=150, deadline=None)
    @given(run=runs())
    def test_lockstep_engine_matches_lanes_run_alone(self, mode, run):
        assert_matches_oracle(run | {"solver": MODES[mode]})

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_shipped_welfare_lanes_with_drops(self, mode):
        run = welfare_mix(MODES[mode])
        assert_matches_oracle(run)
        metrics = run_policy(run["slots"], run["specs"], run["thresholds"], 5, solver=run["solver"])
        assert any(m.drop_events for m in metrics)

    def test_budget_stops_some_searches(self, monkeypatch):
        finished = []
        original = solver_mod.branch_and_bound

        def recording(inst, node_budget):
            result = original(inst, node_budget)
            finished.append(result.exact)
            return result

        monkeypatch.setattr(solver_mod, "branch_and_bound", recording)
        run = welfare_mix(MODES["bnb"])
        run_policy(run["slots"], run["specs"], run["thresholds"], 5, solver=run["solver"])
        assert False in finished and True in finished
