"""Reference dual upper bound: the dense per-chunk tie-break sweep.

Both references read a trace's welfare table, whose columns are in
bit-mask order, and rank its subsets by `oracle_subset.tiebreak_tables`.
Each sweep adds the multiplier term, summed over each subset by
subset_linear_table as the fast sweep sums it, to 4096-row chunks of the
table, builds an int64 array that holds each near-maximum's tie-break rank
and the int64 maximum elsewhere, and takes each row's argmin as its pick.
`sensecourt.benchmark.dual_upper_bound` must reproduce its result bit for
bit. Test and benchmark helper only: per chunk it holds a float and an
int64 temporary of 4096 x 2^N cells.

`slotwise_optimum_loop` is the per-row tie-break loop that the unconstrained
optimum must reproduce. `tiebreak_picks_dense` is the former body of
`sensecourt.solver.tiebreak_picks`, the full rule on every row with the
columns put in tie-break order by `oracle_subset.ranked_masks`, which the
mask-order argmax and runner-up routine must reproduce.
"""

import numpy as np

from sensecourt.benchmark import BenchmarkResult, Trace
from sensecourt.policy_dual import StepSchedule
from sensecourt.solver import TIE_TOL, subset_linear_table

from oracle_subset import ranked_masks, tiebreak_tables


def dual_upper_bound_dense(
    trace: Trace, slots, iterations: int, schedule: StepSchedule | None = None
) -> BenchmarkResult:
    """Subgradient descent on the trace-empirical dual objective.

    Each iteration sweeps the whole trace with the multipliers fixed,
    evaluating g_hat(lambda) = mean of per-slot maxima of
    (welfare + lambda . x) minus lambda . D, whose minimum over the visited
    multipliers (including the averaged iterate) upper-bounds the welfare
    of every trace-feasible plan by weak duality. The exact subgradient is
    the per-user allocation frequency minus the threshold.

    The default schedule is harmonic with a coefficient matched to the
    trace's mean cost: the optimal multipliers live on the cost scale, and
    a unit step cannot reach them on expensive instances; that mean is taken
    over `slots`, the slots the trace was built from. The table is
    trace.tables.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if schedule is None:
        scale = float(np.mean([s.true_costs.mean() for s in slots]))
        schedule = StepSchedule.harmonic(max(1.0, 2.0 * scale))
    n, t = trace.n_users, trace.t_slots
    tables, d = trace.tables, trace.thresholds
    size = 1 << n
    member = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    _, _, tb = tiebreak_tables(n)
    big = np.iinfo(np.int64).max

    def sweep(lam: np.ndarray) -> tuple[float, np.ndarray]:
        add = subset_linear_table(lam)
        ghat_sum = 0.0
        dbar = np.zeros(n)
        for lo in range(0, t, 4096):
            obj = tables[lo : lo + 4096] + add[None, :]
            row_best = obj.max(axis=1)
            picks = np.where(
                obj >= row_best[:, None] - TIE_TOL, tb[None, :], big
            ).argmin(axis=1)
            ghat_sum += float(row_best.sum())
            dbar += member[picks].sum(axis=0)
        return ghat_sum / t - float(lam @ d), dbar / t

    lam = np.zeros(n)
    lam_sum = np.zeros(n)
    best = (np.inf, lam, np.zeros(n))
    for k in range(1, iterations + 1):
        ghat, dbar = sweep(lam)
        if ghat < best[0]:
            best = (ghat, lam, dbar)
        lam_sum += lam
        lam = np.maximum(lam - schedule.step(k) * (dbar - d), 0.0)
    lam_avg = lam_sum / iterations
    ghat, dbar = sweep(lam_avg)
    if ghat < best[0]:
        best = (ghat, lam_avg, dbar)

    return BenchmarkResult(best[0], best[2])


def slotwise_optimum_loop(tables: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Average welfare and per-user selection frequency of each row's optimum."""
    _, _, tb = tiebreak_tables(n)
    big = np.iinfo(np.int64).max
    total = 0.0
    selections = np.zeros(n)
    for row in tables:
        s = int(np.where(row >= row.max() - TIE_TOL, tb, big).argmin())
        total += float(row[s])
        selections += (s >> np.arange(n)) & 1
    return total / len(tables), selections / len(tables)


def tiebreak_picks_dense(rows: np.ndarray, add) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima of rows + add, by np.max over mask order, and each row's
    pick for every row: the local mask of its first column within TIE_TOL
    of its maximum once the columns are in tie-break order."""
    obj = rows + add
    best = obj.max(axis=1)
    by_rank = ranked_masks(obj.shape[1].bit_length() - 1)
    return best, by_rank[(obj[:, by_rank] >= (best - TIE_TOL)[:, None]).argmax(axis=1)]
