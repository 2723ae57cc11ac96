"""Sensor selection with long-term participation incentives.

Per-slot coverage welfare arithmetic, a shared regulated-welfare solver,
offline benchmarks, two asymptotically optimal online selection policies,
a truthful regulated reverse VCG auction, literature baselines, a
stochastic scenario generator, and a discrete-time simulation engine.
"""

from .world import (
    Allocation,
    GridMap,
    SensingRegion,
    SlotRealization,
    WeightField,
    WelfareBreakdown,
    evaluate_allocation,
)
from .solver import (
    RegulatedInstance,
    SolveOptions,
    SolveResult,
    SolverCapacityError,
    branch_and_bound,
    solve,
    solve_exact,
    solve_greedy,
)
from .benchmark import (
    BenchmarkCapacityError,
    BenchmarkResult,
    Trace,
    dual_upper_bound,
    incentive_cost,
    solve_complete_bruteforce,
    unconstrained_trace_welfare,
)
from .policy_dual import DualState, StepSchedule, dual_allocate, dual_update
from .policy_lyapunov import (
    QueueState,
    lyapunov_allocate,
    penalty_bound_B,
    queue_update,
)
from .auction import (
    AuctionOutcome,
    ExactPivotsRequiredError,
    RegulationState,
    regulation_update,
    run_auction_slot,
    truthfulness_sweep,
)
from .baselines import (
    VpcState,
    greedy_baseline_step,
    radp_vpc_step,
    random_baseline_step,
    vpc_update,
)
from .scenarios import ScenarioConfig, realization_stream
from .engine import (
    PolicySpec,
    TraceMetrics,
    apply_dropping,
    compute_summary,
    run_policy,
    run_simulation,
)

__version__ = "0.1.0"
