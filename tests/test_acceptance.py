"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Scenario knobs not pinned by a criterion (cost ratio, jitter, phi for
the dropping run) were calibrated once and frozen with their seeds.
"""

import json
import time

import numpy as np
import pytest

from sensecourt.auction import run_auction_slot, truthfulness_sweep
from sensecourt.benchmark import (
    Trace,
    dual_upper_bound,
    incentive_cost,
    solve_complete_bruteforce,
    unconstrained_trace_welfare,
)
from sensecourt.cli import cmd_benchmark, cmd_simulate, cmd_truthcheck
from sensecourt.engine import PolicySpec, run_policy, run_simulation
from sensecourt.policy_dual import dual_allocate
from sensecourt.policy_lyapunov import lyapunov_allocate, penalty_bound_B
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import (
    RegulatedInstance,
    SolveOptions,
    branch_and_bound,
    solve_exact,
)
from sensecourt.world import GridMap

from oracle_dp import constrained_optimum_dp
from test_solver import oracle_enumerate
from test_world import make_realization

TOL = 1e-9


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_c1_solver_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    mismatches = 0
    for k in range(200):
        n_users = int(rng.integers(1, 13))
        n_grids = int(rng.integers(4, 61))
        regions = [
            set(rng.choice(n_grids, size=rng.integers(0, n_grids + 1), replace=False).tolist())
            for _ in range(n_users)
        ]
        if k % 4 == 0:  # tie-prone block: unit weights, gridded charges
            weights = np.ones(n_grids)
            kappa = rng.choice([0.0, 0.5, 1.0, 2.0], size=n_users)
            if n_users >= 2:
                regions[1] = set(regions[0])
                kappa[1] = kappa[0]
        else:
            weights = rng.random(n_grids) * 4
            kappa = rng.random(n_users) * 6 - 1.0
        real = make_realization(n_grids, regions, weights, np.maximum(kappa, 0))
        inst = RegulatedInstance.of(real, kappa)
        oracle_alloc, oracle_obj = oracle_enumerate(inst)
        for res in (solve_exact(inst), branch_and_bound(inst, node_budget=1 << 16)):
            if abs(res.objective - oracle_obj) > TOL:
                mismatches += 1
            if res.selected.tolist() != oracle_alloc.tolist():
                mismatches += 1
            if not res.exact:
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        "C1 solver oracle equivalence",
        mismatches == 0 and elapsed < 30.0,
        f"200 instances, 0 expected mismatches, got {mismatches}, {elapsed:.1f}s < 30s",
    )


def test_c2_queue_stability_and_participation():
    t_slots = 10_000
    cfg = ScenarioConfig(
        map=GridMap(20, 20, 200.0), n_users=20,
        radius_min_m=400.0, radius_max_m=800.0,
        cost_to_weight_ratio=0.5, seed=2024,
    )
    thresholds = np.full(20, 0.5)
    start = time.monotonic()
    metrics = run_policy(
        realization_stream(cfg, t_slots),
        PolicySpec("lyapunov", phi=10),
        thresholds,
        warmup_slots=40,
        solver=SolveOptions(mode="greedy"),
        dropping=False,
        t_slots=t_slots,
    )
    elapsed = time.monotonic() - start
    backlogs = metrics.final_level
    probs = metrics.alloc_prob_series[-1]
    max_ratio = backlogs.max() / t_slots
    report(
        "C2 queue stability and participatory satisfaction",
        max_ratio <= 0.05 and probs.min() >= 0.48 and elapsed < 60.0,
        f"max q/T={max_ratio:.4f} <= 0.05, min prob={probs.min():.3f} >= 0.48, "
        f"{elapsed:.1f}s < 60s",
    )


@pytest.fixture(scope="module")
def theorem2_setup():
    cfg = ScenarioConfig(
        map=GridMap(10, 10, 200.0), n_users=8,
        radius_min_m=400.0, radius_max_m=800.0,
        cost_to_weight_ratio=0.8, cost_jitter=(0.6, 1.4),
        step_max_m=2000.0, seed=777,
    )
    slots = list(realization_stream(cfg, 10_000))
    thresholds = np.full(8, 0.5)
    bound = dual_upper_bound(Trace(tuple(slots), thresholds), iterations=400)
    return slots, thresholds, bound


def test_c3_theorem2_bound(theorem2_setup):
    slots, thresholds, bound = theorem2_setup
    bound_value = bound.avg_welfare
    b_const = penalty_bound_B(thresholds)
    welfare = {}
    ok_bound = True
    details = [f"bound={bound_value:.4f}"]
    for phi in (5, 10, 20):
        metrics = run_policy(
            slots, PolicySpec("lyapunov", phi=phi), thresholds, 40,
            solver=SolveOptions(mode="exact"), dropping=False,
        )
        welfare[phi] = metrics.running_avg_welfare[-1]
        allowance = 1.05 * b_const / phi
        ok_bound &= welfare[phi] >= bound_value - allowance
        details.append(
            f"phi={phi}: W={welfare[phi]:.4f} gap={bound_value - welfare[phi]:.4f} "
            f"allow={allowance:.4f}"
        )
    ok_order = welfare[20] > welfare[10] > welfare[5]
    report(
        "C3 drift-plus-penalty welfare bound",
        ok_bound and ok_order,
        "; ".join(details) + f"; ordering 20>10>5 {'holds' if ok_order else 'VIOLATED'}",
    )


def test_c4_policy_equivalences():
    # (a) dual and drift-plus-penalty share the allocation rule at q = phi*lambda
    cfg = ScenarioConfig(
        map=GridMap(8, 8, 200.0), n_users=6,
        radius_min_m=300.0, radius_max_m=700.0,
        cost_to_weight_ratio=0.5, seed=404,
    )
    rng = np.random.default_rng(404)
    phi = 9.0
    agree = 0
    for realization in realization_stream(cfg, 100):
        lam = rng.random(6) * 3
        q = phi * lam
        a = dual_allocate(lam, realization, options=SolveOptions(mode="exact"))
        b = lyapunov_allocate(q / phi, realization, options=SolveOptions(mode="exact"))
        agree += a.tolist() == b.tolist()

    # (b) the truthful auction reproduces the queue policy's trace
    slots = list(realization_stream(cfg, 500))
    thresholds = np.full(6, 0.5)
    lyap = run_policy(
        slots, PolicySpec("lyapunov", phi=10), thresholds, 40,
        solver=SolveOptions(mode="exact"), dropping=False,
    )
    auct = run_policy(
        slots, PolicySpec("auction", phi=10), thresholds, 40,
        solver=SolveOptions(mode="exact"), dropping=False,
    )
    same_alloc = np.array_equal(lyap.selected, auct.selected)
    same_welfare = np.array_equal(lyap.welfare_series, auct.welfare_series)
    report(
        "C4 policy equivalences",
        agree == 100 and same_alloc and same_welfare,
        f"allocation-rule agreement {agree}/100; auction trace over 500 slots "
        f"alloc={'equal' if same_alloc else 'DIFFERS'} "
        f"welfare={'equal' if same_welfare else 'DIFFERS'}",
    )


def test_c5_truthfulness():
    rng = np.random.default_rng(505)
    max_regret = 0.0
    min_ir_margin = np.inf
    win_win = 0
    loss_win = 0

    def random_instance(force=None):
        n_grids = int(rng.integers(6, 25))
        n_users = int(rng.integers(2, 9))
        regions = [
            set(rng.choice(n_grids, size=rng.integers(1, n_grids + 1), replace=False).tolist())
            for _ in range(n_users)
        ]
        weights = rng.random(n_grids) * 2
        costs = rng.uniform(0.1, 2.0, size=n_users)
        user = int(rng.integers(0, n_users))
        if force == "cheap":
            costs[user] = 0.05
        elif force == "expensive":
            costs[user] = 40.0
        real = make_realization(n_grids, regions, weights, costs)
        factors = rng.uniform(0, 0.4, size=n_users)
        return real, factors, costs, user

    plans = ["random"] * 460 + ["cheap"] * 20 + ["expensive"] * 20
    for plan in plans:
        real, factors, costs, user = random_instance(None if plan == "random" else plan)
        grid = np.linspace(0.0, 3.0 * costs[user], 201)
        rep = truthfulness_sweep(real, factors, costs, user, grid)
        max_regret = max(max_regret, rep.regret)
        outcome = run_auction_slot(factors, real, costs)
        for u in np.flatnonzero(outcome.selected):
            min_ir_margin = min(min_ir_margin, outcome.payments[u] - costs[u])
        winning = rep.payments[rep.selected]
        if plan == "cheap" and winning.size >= 2 and np.ptp(winning) <= TOL:
            win_win += 1
        if (
            plan == "expensive"
            and rep.truthful_utility == 0.0
            and rep.selected.any()
            and np.all(rep.utilities[rep.selected] <= TOL)
        ):
            loss_win += 1

    report(
        "C5 truthfulness",
        max_regret <= TOL and min_ir_margin >= -TOL and win_win >= 20 and loss_win >= 20,
        f"500 sweeps, max regret={max_regret:.2e} <= 1e-9, IR margin={min_ir_margin:.2e}, "
        f"win-win witnesses={win_win} >= 20, loss-win witnesses={loss_win} >= 20",
    )


def _binding_tiny_trace(gen, t_slots):
    """The slots drawn, three costly users on 8 grids, and their trace at D = 0.6."""
    slots = []
    for _ in range(t_slots):
        n_grids = 8
        regions = [
            set(gen.choice(n_grids, size=gen.integers(1, n_grids + 1), replace=False).tolist())
            for _ in range(3)
        ]
        weights = gen.random(n_grids) * 2
        costs = gen.uniform(0.3, 2.5, size=3)
        slots.append(make_realization(n_grids, regions, weights, costs))
    return slots, Trace(tuple(slots), np.full(3, 0.6))


def test_c6_weak_duality_and_lemma1_trend():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(100):
        gen = np.random.default_rng(int(rng.integers(0, 2**31)))
        _, trace = _binding_tiny_trace(gen, 4)
        bound = dual_upper_bound(trace, iterations=60)
        exact = solve_complete_bruteforce(trace)
        if bound.avg_welfare < exact.avg_welfare - TOL:
            violations += 1

    pairs = 20
    shrunk = 0
    for p in range(pairs):
        gaps = []
        for t_slots in (4, 64):
            gen = np.random.default_rng(7000 + p)
            slots, trace = _binding_tiny_trace(gen, t_slots)
            bound = dual_upper_bound(trace, iterations=200)
            opt = constrained_optimum_dp(slots, trace.thresholds)
            gaps.append(bound.avg_welfare - opt)
        if gaps[1] <= gaps[0] + TOL:
            shrunk += 1
    report(
        "C6 weak duality and horizon trend",
        violations == 0 and shrunk >= 0.8 * pairs,
        f"100 tiny traces, duality violations={violations}; "
        f"gap shrank at T=64 on {shrunk}/{pairs} pairs (need >= {int(0.8 * pairs)})",
    )


def test_c7_dropping_reproduction():
    cfg = ScenarioConfig(
        map=GridMap(50, 50, 200.0), n_users=100,
        radius_min_m=400.0, radius_max_m=800.0,
        cost_to_weight_ratio=0.8, cost_jitter=(0.5, 1.5),
        step_max_m=1000.0, seed=42,
    )
    start = time.monotonic()
    specs = (
        PolicySpec("lyapunov", phi=3),
        PolicySpec("radp_vpc", alpha=1),
        PolicySpec("greedy"),
        PolicySpec("random"),
    )
    fractions = {
        spec.kind: metrics.summary["dropping_fraction"]
        for spec, metrics in zip(specs, run_simulation(cfg, specs, 2000, 40, 0.5))
    }
    elapsed = time.monotonic() - start
    ok = (
        fractions["lyapunov"] == 0.0
        and fractions["greedy"] >= 0.4
        and fractions["random"] >= 0.4
        and 0.0 < fractions["radp_vpc"] < fractions["greedy"]
        and elapsed < 300.0
    )
    report(
        "C7 dropping ordering at desk scale",
        ok,
        f"drop fractions: lyapunov={fractions['lyapunov']:.2f}, "
        f"radp_vpc={fractions['radp_vpc']:.2f}, greedy={fractions['greedy']:.2f}, "
        f"random={fractions['random']:.2f}; {elapsed:.0f}s < 300s",
    )


def test_c8_incentive_cost_monotonicity():
    cfg = ScenarioConfig(
        map=GridMap(10, 10, 200.0), n_users=8,
        radius_min_m=400.0, radius_max_m=800.0,
        cost_to_weight_ratio=1.4, cost_jitter=(0.6, 1.4),
        step_max_m=2000.0, seed=99,
    )
    slots = tuple(realization_stream(cfg, 400))
    unconstrained = unconstrained_trace_welfare(Trace(slots, np.zeros(8)))
    welfare = []
    costs = []
    for d in (0.0, 0.2, 0.4, 0.6):
        bound = dual_upper_bound(Trace(slots, np.full(8, d)), iterations=300)
        welfare.append(bound.avg_welfare)
        costs.append(incentive_cost(unconstrained, bound))
    non_increasing = all(b <= a + TOL for a, b in zip(welfare, welfare[1:]))
    increasing = (
        all(c >= 0 for c in costs)
        and all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))
        and costs[-1] > costs[0]
    )
    report(
        "C8 incentive cost monotonicity",
        non_increasing and increasing,
        f"welfare={['%.3f' % w for w in welfare]}, "
        f"incentive cost={['%.3f' % c for c in costs]}",
    )


def test_c9_command_determinism(tmp_path):
    config = {
        "scenario": {
            "width_grids": 8, "height_grids": 8, "grid_edge_m": 200.0,
            "n_users": 5, "radius_min_m": 300.0, "radius_max_m": 600.0,
            "cost_to_weight_ratio": 0.5, "seed": 909,
        },
        "policies": [
            {"kind": "lyapunov", "phi": 10},
            {"kind": "auction", "phi": 10},
            {"kind": "dual"},
            {"kind": "radp_vpc", "alpha": 1.0},
            {"kind": "greedy"},
            {"kind": "random"},
        ],
        "t_slots": 40,
        "warmup_slots": 8,
        "thresholds": 0.5,
        "replications": 2,
        "output_dir": "unused",
        "solver": {"mode": "exact"},
        "benchmark": {"iterations": 60, "bruteforce": False},
        "truthcheck": {"instances": 10, "bid_points": 41, "bid_span": 3.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    trees = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cmd_simulate(str(path), out=str(out / "sim")) == 0
        assert cmd_benchmark(str(path), out=str(out / "bench")) == 0
        assert cmd_truthcheck(str(path), out=str(out / "truth")) == 0
        tree = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(out))] = p.read_bytes()
        trees.append(tree)
    identical = trees[0] == trees[1]
    report(
        "C9 determinism",
        identical,
        f"{len(trees[0])} files byte-identical across reruns"
        if identical
        else "outputs differ between reruns",
    )
