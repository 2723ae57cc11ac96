"""run_policy against the paper's rules replayed user by user (oracle_rules.py).

Each drawn run steps a mix of all six policy kinds in lockstep. Whatever the
solver picked, the recorded bonuses, allocation probabilities, active masks,
drop events and final states must follow from the selections by the rules
alone, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.engine import POLICY_KINDS, PolicySpec, run_policy
from sensecourt.policy_dual import StepSchedule
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import SolveOptions
from sensecourt.world import GridMap

from oracle_rules import replay

RECORDED = ("regulation", "alloc_prob_series", "active")


def spec_of(kind: str, knob: float, constant: bool) -> PolicySpec:
    if kind == "dual":
        schedule = StepSchedule.constant(knob / 10) if constant else StepSchedule.harmonic(knob)
        return PolicySpec(kind, schedule=schedule)
    if kind == "radp_vpc":
        return PolicySpec(kind, alpha=knob / 4)
    if kind in ("greedy", "random"):
        return PolicySpec(kind)
    return PolicySpec(kind, phi=knob)


@st.composite
def runs(draw):
    n = draw(st.integers(1, 6))
    t_slots = draw(st.integers(1, 60))
    scenario = ScenarioConfig(
        map=GridMap(draw(st.integers(2, 5)), draw(st.integers(2, 5)), 200.0),
        n_users=n,
        radius_min_m=200.0,
        radius_max_m=500.0,
        cost_to_weight_ratio=draw(st.sampled_from([0.1, 0.4, 1.0, 1.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    lane = st.tuples(
        st.sampled_from(POLICY_KINDS), st.sampled_from([0.5, 1.0, 2.0, 5.0]), st.booleans()
    )
    specs = [spec_of(*args) for args in draw(st.lists(lane, min_size=1, max_size=6))]
    levels = st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.8, 1.0])
    return dict(
        slots=list(realization_stream(scenario, t_slots)),
        specs=specs,
        thresholds=np.array(draw(st.lists(levels, min_size=n, max_size=n))),
        warmup=draw(st.integers(0, min(t_slots, 6))),
        solver=SolveOptions(mode=draw(st.sampled_from(["exact", "greedy"]))),
        seed=scenario.seed,
        dropping=draw(st.booleans()),
    )


def assert_follows_rules(run):
    got = run_policy(
        run["slots"], run["specs"], run["thresholds"], run["warmup"],
        solver=run["solver"], seed=run["seed"], dropping=run["dropping"],
    )
    for spec, metrics in zip(run["specs"], got):
        want = replay(spec, metrics.selected, run["thresholds"], run["warmup"], run["dropping"])
        for name in RECORDED:
            x, y = getattr(metrics, name), want[name]
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (spec.label, name)
        assert metrics.drop_events == want["drop_events"], spec.label
        final = want["final_policy_state"]
        if final is None:
            assert metrics.final_policy_state is None, spec.label
            continue
        for name, y in final.items():
            x = getattr(metrics.final_policy_state, name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (spec.label, name)
            else:
                assert x == y, (spec.label, name)


class TestRulesOracle:
    @settings(max_examples=300, deadline=None)
    @given(runs())
    def test_run_follows_the_rules_from_its_selections(self, run):
        assert_follows_rules(run)

    def test_every_kind_drops_on_a_desk(self):
        # one shared threshold, long enough for each lane to lose users
        scenario = ScenarioConfig(
            map=GridMap(5, 5, 200.0), n_users=6, radius_min_m=200.0,
            radius_max_m=500.0, cost_to_weight_ratio=1.0, seed=7,
        )
        specs = [spec_of(kind, 2.0, False) for kind in POLICY_KINDS]
        specs.append(spec_of("dual", 2.0, True))
        run = dict(
            slots=list(realization_stream(scenario, 60)), specs=specs,
            thresholds=np.full(6, 0.5), warmup=4, solver=SolveOptions(mode="exact"),
            seed=7, dropping=True,
        )
        assert_follows_rules(run)
        metrics = run_policy(run["slots"], specs, run["thresholds"], 4, solver=run["solver"])
        assert sum(bool(m.drop_events) for m in metrics) >= 4
