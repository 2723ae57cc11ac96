"""run_policy against the per-lane reference engine in oracle_engine.py.

The engine solves the lanes of a slot in one solver.allocate_many per
eligible set and route, and evaluates each distinct selection once; the
oracle gives each lane its own instance, solve and evaluation. Every
per-slot array, the drop events and the payments must agree bit for bit.
These runs use the exact and auto modes; tests/test_engine_routes.py runs
them in greedy and bnb mode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.engine import POLICY_KINDS, PolicySpec, run_policy
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import SolveOptions
from sensecourt.world import GridMap

from oracle_engine import run_lane_alone

ARRAYS = (
    "welfare_series",
    "alloc_prob_series",
    "selected",
    "active",
    "regulation",
    "payments_series",
)


def spec_of(kind: str, knob: float) -> PolicySpec:
    if kind == "dual":
        return PolicySpec(kind, schedule=StepSchedule.harmonic(knob))
    if kind == "radp_vpc":
        return PolicySpec(kind, alpha=knob / 4)
    if kind in ("greedy", "random"):
        return PolicySpec(kind)
    return PolicySpec(kind, phi=knob)


@st.composite
def runs(draw):
    # half the runs are welfare-desk-like: a long run, one shared threshold
    # and an early end of warmup, so that lanes drop different users
    desk = draw(st.booleans())
    n = draw(st.integers(4, 6) if desk else st.integers(1, 6))
    t_slots = 40 if desk else draw(st.integers(1, 40))
    scenario = ScenarioConfig(
        map=GridMap(draw(st.integers(2, 6)), draw(st.integers(2, 6)), 200.0),
        n_users=n,
        radius_min_m=200.0,
        radius_max_m=500.0,
        cost_to_weight_ratio=draw(st.sampled_from([0.1, 0.4, 1.0, 1.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    phi = draw(st.sampled_from([1.0, 4.0, 10.0]))
    # an auction and a lyapunov lane with the same phi, plus a mix of all kinds
    kinds = st.tuples(st.sampled_from(POLICY_KINDS), st.sampled_from([0.5, 2.0, 5.0]))
    specs = [PolicySpec("lyapunov", phi=phi), PolicySpec("auction", phi=phi)]
    specs += [spec_of(kind, knob) for kind, knob in draw(st.lists(kinds, max_size=5))]
    specs = draw(st.permutations(specs))
    if draw(st.booleans()):
        solver = SolveOptions(mode="exact")
    else:  # auto, with some lanes past exact_limit once no auction is left
        limit = draw(st.integers(0, n + 1))
        if limit < n:
            specs = [spec for spec in specs if spec.kind != "auction"] or [PolicySpec("dual")]
        solver = SolveOptions(mode="auto", exact_limit=limit)
    if desk:
        thresholds = [draw(st.sampled_from([0.5, 0.8]))] * n
    else:
        levels = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])
        thresholds = draw(st.lists(levels, min_size=n, max_size=n))
    return dict(
        slots=list(realization_stream(scenario, t_slots)),
        specs=specs,
        thresholds=np.array(thresholds),
        warmup=draw(st.integers(0, 4 if desk else t_slots)),
        solver=solver,
        seed=scenario.seed,
        dropping=desk or draw(st.booleans()),
    )


def assert_matches_oracle(run):
    got = run_policy(
        run["slots"], run["specs"], run["thresholds"], run["warmup"],
        solver=run["solver"], seed=run["seed"], dropping=run["dropping"],
    )
    for spec, metrics in zip(run["specs"], got):
        want = run_lane_alone(
            run["slots"], spec, run["thresholds"], run["warmup"],
            run["solver"], run["seed"], run["dropping"],
        )
        for name in ARRAYS:
            x, y = getattr(metrics, name), want[name]
            if y is None:
                assert x is None, name
            else:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (spec.label, name)
        assert metrics.drop_events == want["drop_events"], spec.label


class TestEngineOracle:
    @settings(max_examples=200, deadline=None)
    @given(runs())
    def test_lockstep_engine_matches_lanes_run_alone(self, run):
        assert_matches_oracle(run)

    def test_shipped_welfare_lanes_with_drops(self):
        # the welfare desk's policy mix at 6 users, with users dropping
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
        run = dict(
            slots=list(realization_stream(scenario, 40)), specs=specs,
            thresholds=np.full(6, 0.5), warmup=5, solver=SolveOptions(mode="exact"),
            seed=5, dropping=True,
        )
        assert_matches_oracle(run)
        metrics = run_policy(run["slots"], specs, run["thresholds"], 5, solver=run["solver"])
        assert any(m.drop_events for m in metrics)
        # lanes that lost different users sit in different groups
        assert len({m.active[-1].tobytes() for m in metrics}) > 1
