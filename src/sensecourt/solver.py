"""Per-slot regulated-welfare maximization.

Every selection policy in this package reduces its slot decision to the
same combinatorial problem: pick a user subset maximizing coverage value
minus the sum of per-user effective charges kappa_n. The charge is a true
cost, a bid, or either of those minus a regulation bonus, so kappa_n may
be negative, in which case selecting the user is always profitable.

Three solvers share one deterministic tie-breaking rule so traces and
auction pivots are reproducible: among objectives within TIE_TOL of the
maximum, prefer fewer selected users, then the lexicographically smallest
vector of selected user indices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .world import Allocation, SlotRealization

__all__ = [
    "TIE_TOL",
    "DEFAULT_EXACT_LIMIT",
    "DEFAULT_NODE_BUDGET",
    "SolverCapacityError",
    "RegulatedInstance",
    "freeze_ineligible",
    "SolveResult",
    "SolveOptions",
    "solve_exact",
    "solve_greedy",
    "branch_and_bound",
    "solve",
    "regulated_allocate",
    "subset_value_table",
    "slot_value_table",
    "subset_linear_table",
    "tiebreak_argmax",
    "tiebreak_argmax_without",
    "tiebreak_order",
]

TIE_TOL = 1e-9
DEFAULT_EXACT_LIMIT = 20
DEFAULT_NODE_BUDGET = 20_000
_BLOCK_CELLS = 1 << 16  # per-block temporaries of subset_value_table


class SolverCapacityError(RuntimeError):
    """Instance exceeds the size limit of the requested exact method."""


@dataclass(frozen=True, eq=False)
class RegulatedInstance:
    """A slot realization with effective charges and an eligibility mask.

    effective_costs may be negative (a regulation bonus can exceed the cost).
    Ineligible users are never selected.
    """

    realization: SlotRealization
    effective_costs: np.ndarray
    eligible: np.ndarray

    def __post_init__(self):
        costs = np.array(self.effective_costs, dtype=float, copy=True)
        if costs.shape != (self.realization.n_users,):
            raise ValueError("effective_costs length must match user count")
        if not np.all(np.isfinite(costs)):
            raise ValueError("effective_costs must be finite")
        elig = np.array(self.eligible, dtype=bool, copy=True)
        if elig.shape != costs.shape:
            raise ValueError("eligible length must match user count")
        costs.flags.writeable = False
        elig.flags.writeable = False
        object.__setattr__(self, "effective_costs", costs)
        object.__setattr__(self, "eligible", elig)

    @classmethod
    def of(
        cls,
        realization: SlotRealization,
        effective_costs: np.ndarray,
        eligible: np.ndarray | None = None,
    ) -> "RegulatedInstance":
        if eligible is None:
            eligible = np.ones(realization.n_users, dtype=bool)
        return cls(realization, effective_costs, eligible)


def freeze_ineligible(
    new: np.ndarray, old: np.ndarray, eligible: np.ndarray | None
) -> np.ndarray:
    """new for eligible users (all when None), old for the rest: dropped users stay frozen."""
    return new if eligible is None else np.where(eligible, new, old)


@dataclass(frozen=True)
class SolveResult:
    alloc: Allocation
    objective: float
    exact: bool


@dataclass(frozen=True)
class SolveOptions:
    """How a policy solves its per-slot problem.

    auto: exact enumeration up to exact_limit eligible users, otherwise
    branch and bound seeded with the greedy solution.
    """

    mode: str = "auto"
    exact_limit: int = DEFAULT_EXACT_LIMIT
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "greedy", "bnb"):
            raise ValueError(f"unknown solver mode {self.mode!r}")


# ---------------------------------------------------------------------------
# subset table machinery (shared with benchmark and auction sweeps)
# ---------------------------------------------------------------------------


def subset_value_table(realization: SlotRealization, users: np.ndarray) -> np.ndarray:
    """Coverage value of every subset of `users`, indexed by local bit mask.

    Subset s has bit i set iff users[i] is in the subset. value(s) is
    value(s without its lowest member j) plus, in ascending grid order, the
    weights of j's grids that no higher member covers. The table is filled
    one level per user, from the highest bit down, so every parent is ready
    before its children. At level j the parents are the rows of a
    (2^(m-j-1), 2^(j+1)) view; a grid already covered by a parent adds 0.0,
    which leaves the running sum unchanged, and `np.add.accumulate` adds in
    column order. That repeats the scalar loop's additions in its order, so
    the table matches it bit for bit. Parent rows go in blocks of about
    _BLOCK_CELLS cells to keep the temporaries small.
    """
    m = len(users)
    values = np.zeros(1 << m)
    w = realization.weights.values
    owners = np.zeros(realization.n_grids, dtype=np.int64)  # local bits above j
    for j in range(m - 1, -1, -1):
        grids = realization.regions[int(users[j])].indices
        rows = values.reshape(-1, 2 << j)  # row p: subsets whose bits above j spell p
        above = (owners[grids] >> (j + 1))[:, None]
        weights = w[grids][:, None]
        step = max(1, _BLOCK_CELLS // (grids.size + 1))
        for lo in range(0, rows.shape[0], step):
            block = rows[lo : lo + step]
            acc = np.empty((grids.size + 1, block.shape[0]))
            acc[0] = block[:, 0]
            parents = np.arange(lo, lo + block.shape[0])
            np.copyto(acc[1:], np.where((above & parents) == 0, weights, 0.0))
            np.add.accumulate(acc, axis=0, out=acc)
            block[:, 1 << j] = acc[-1]
        owners[grids] |= 1 << j
    return values


def slot_value_table(realization: SlotRealization, users: np.ndarray) -> np.ndarray:
    """subset_value_table, built once per (slot, users) and kept on the slot.

    Lockstep policies that solve one slot over the same eligible users, and
    an auction's pivots, read the same read-only table; it is dropped with
    the slot.
    """
    memo = realization.table_memo
    key = np.asarray(users, dtype=np.int64).tobytes()
    table = memo.get(key)
    if table is None:
        table = subset_value_table(realization, users)
        table.flags.writeable = False
        memo[key] = table
    return table


def subset_linear_table(per_user: np.ndarray) -> np.ndarray:
    """Sum of per-user terms over every subset, indexed by local bit mask."""
    table = np.zeros(1)
    for v in np.asarray(per_user, dtype=float):
        table = np.concatenate([table, table + v])
    return table


@lru_cache(maxsize=8)
def tiebreak_order(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(by_rank, rank) of the 2^m local masks under the tie-break rule.

    by_rank lists the masks from most to least preferred and rank[s] is mask
    s's place in that list; both are read-only. For equal popcount, the
    lexicographically smaller selected-index vector has the larger
    reversed-bit key, so sorting by popcount * 2^(m+1) - revkey realizes
    the order.
    """
    masks = np.arange(1 << m, dtype=np.int64)
    key = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        key += ((masks >> j) & 1) * ((2 << m) - (1 << (m - 1 - j)))
    by_rank = np.argsort(key)
    rank = np.empty_like(by_rank)
    rank[by_rank] = masks
    by_rank.flags.writeable = False
    rank.flags.writeable = False
    return by_rank, rank


def _argmin_rank_near_max(objective: np.ndarray, rank: np.ndarray, tol: float) -> int:
    best = objective.max()
    return int(np.where(objective >= best - tol, rank, np.iinfo(np.int64).max).argmin())


def tiebreak_argmax(objective: np.ndarray, m: int, tol: float = TIE_TOL) -> int:
    """Index of the tie-break-preferred maximizer of a subset objective."""
    return _argmin_rank_near_max(objective, tiebreak_order(m)[1], tol)


def tiebreak_argmax_without(
    objective: np.ndarray, m: int, j: int, tol: float = TIE_TOL
) -> int:
    """Local mask of the tie-break-preferred maximizer among subsets without bit j.

    A subset without user j has the same table entry, built by the same
    additions, as in a table over the other m - 1 users, and the tie-break
    ranks keep their order when restricted. So the mask and its objective
    equal those of solve_exact on the eligible set without user j.
    """
    half = 1 << j
    rows = objective.reshape(-1, 2 * half)[:, :half]
    rank = tiebreak_order(m)[1].reshape(-1, 2 * half)[:, :half]
    row, col = divmod(_argmin_rank_near_max(rows, rank, tol), half)
    return (row << (j + 1)) | col


def _local_mask_to_allocation(mask: int, users: np.ndarray, n_users: int) -> Allocation:
    sel = np.zeros(n_users, dtype=bool)
    while mask:
        low = mask & -mask
        sel[int(users[low.bit_length() - 1])] = True
        mask ^= low
    return Allocation(sel)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_exact(inst: RegulatedInstance, exact_limit: int = DEFAULT_EXACT_LIMIT) -> SolveResult:
    """Global maximizer over all subsets of eligible users.

    Raises SolverCapacityError when more than exact_limit users are
    eligible; callers fall back to branch_and_bound or solve_greedy.
    """
    users = np.flatnonzero(inst.eligible)
    m = users.size
    if m > exact_limit:
        raise SolverCapacityError(
            f"{m} eligible users exceed exact_limit={exact_limit}"
        )
    n = inst.realization.n_users
    if m == 0:
        return SolveResult(Allocation.none(n), 0.0, True)
    values = slot_value_table(inst.realization, users)
    costs = subset_linear_table(inst.effective_costs[users])
    objective = values - costs
    s = tiebreak_argmax(objective, m)
    return SolveResult(_local_mask_to_allocation(s, users, n), float(objective[s]), True)


def solve_greedy(inst: RegulatedInstance) -> SolveResult:
    """Lazy marginal-gain greedy.

    Users with negative effective cost are selected unconditionally first
    (their gain is positive regardless of coverage). Remaining users are
    added by largest marginal coverage value minus charge, lowest index on
    ties, while the best gain is strictly positive. Marginal gains only
    shrink as coverage grows, so stale heap entries are safe to re-check.
    """
    real = inst.realization
    n = real.n_users
    w_rem = real.weights.values.copy()
    selected = np.zeros(n, dtype=bool)
    objective = 0.0

    def marginal(u: int) -> float:
        return float(w_rem[real.regions[u].indices].sum())

    def take(u: int, gain: float) -> None:
        nonlocal objective
        selected[u] = True
        objective += gain
        w_rem[real.regions[u].indices] = 0.0

    heap: list[tuple[float, int]] = []
    for u in np.flatnonzero(inst.eligible):
        u = int(u)
        kappa = float(inst.effective_costs[u])
        if kappa < 0:
            take(u, marginal(u) - kappa)
        else:
            heapq.heappush(heap, (-(marginal(u) - kappa), u))

    while heap:
        stale_key, u = heapq.heappop(heap)
        gain = marginal(u) - float(inst.effective_costs[u])
        if heap and (-gain, u) > heap[0]:
            heapq.heappush(heap, (-gain, u))
            continue
        if gain <= 0.0:
            break
        take(u, gain)

    return SolveResult(Allocation(selected), objective, False)


def branch_and_bound(
    inst: RegulatedInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Depth-first include/exclude search with an additive marginal bound.

    The bound at a node is the current objective plus, for every undecided
    user, max(0, marginal value against the covered grids - charge); by
    submodularity of coverage no completion can do better. The incumbent is
    seeded with the greedy solution. Returns the exact tie-break-canonical
    optimum when the search finishes within node_budget, otherwise the best
    incumbent with exact=False.
    """
    real = inst.realization
    n = real.n_users
    users = np.flatnonzero(inst.eligible)
    m = users.size
    if m == 0:
        return SolveResult(Allocation.none(n), 0.0, True)

    w = real.weights.values.tolist()
    masks = [real.regions[int(u)].mask for u in users]
    kappa = [float(inst.effective_costs[int(u)]) for u in users]
    revbit = [1 << (m - 1 - j) for j in range(m)]

    def new_value(region_mask: int, covered: int) -> float:
        v = 0.0
        new = region_mask & ~covered
        while new:
            b = new & -new
            v += w[b.bit_length() - 1]
            new ^= b
        return v

    seed = solve_greedy(inst)
    seed_local = 0
    for j in range(m):
        if seed.alloc.selected[int(users[j])]:
            seed_local |= 1 << j

    def key_of(mask: int) -> tuple[int, int]:
        rev = 0
        mm = mask
        while mm:
            b = mm & -mm
            rev |= revbit[b.bit_length() - 1]
            mm ^= b
        return (mask.bit_count(), -rev)

    inc_mask = seed_local
    inc_obj = seed.objective
    inc_key = key_of(seed_local)
    best_seen = seed.objective

    def consider(mask: int, obj: float) -> None:
        nonlocal inc_mask, inc_obj, inc_key, best_seen
        if obj > best_seen:
            best_seen = obj
        if obj > inc_obj + TIE_TOL:
            inc_mask, inc_obj, inc_key = mask, obj, key_of(mask)
        elif obj >= inc_obj - TIE_TOL:
            key = key_of(mask)
            if key < inc_key:
                inc_mask, inc_obj, inc_key = mask, obj, key

    consider(0, 0.0)

    # node: (selected local mask, covered grid mask, objective, undecided tuple)
    stack: list[tuple[int, int, float, tuple[int, ...]]] = [
        (0, 0, 0.0, tuple(range(m)))
    ]
    nodes = 0
    complete = True
    while stack:
        if nodes >= node_budget:
            complete = False
            break
        nodes += 1
        s_mask, covered, obj, undecided = stack.pop()
        consider(s_mask, obj)
        if not undecided:
            continue
        gains = [new_value(masks[j], covered) - kappa[j] for j in undecided]
        bound = obj + sum(g for g in gains if g > 0)
        if bound < best_seen - TIE_TOL:
            continue
        if bound <= best_seen + TIE_TOL and s_mask.bit_count() >= inc_key[0]:
            # every strict superset loses the tie-break on user count
            continue
        pick = max(range(len(undecided)), key=lambda i: (gains[i], -undecided[i]))
        j = undecided[pick]
        rest = undecided[:pick] + undecided[pick + 1 :]
        stack.append((s_mask, covered, obj, rest))
        stack.append((s_mask | (1 << j), covered | masks[j], obj + gains[pick], rest))

    return SolveResult(
        _local_mask_to_allocation(inc_mask, users, n), inc_obj, complete
    )


def solve(inst: RegulatedInstance, options: SolveOptions = SolveOptions()) -> SolveResult:
    """Dispatch to the solver selected by options (see SolveOptions)."""
    if options.mode == "exact":
        return solve_exact(inst, options.exact_limit)
    if options.mode == "greedy":
        return solve_greedy(inst)
    if options.mode == "bnb":
        return branch_and_bound(inst, options.node_budget)
    if int(inst.eligible.sum()) <= options.exact_limit:
        return solve_exact(inst, options.exact_limit)
    return branch_and_bound(inst, options.node_budget)


def regulated_allocate(
    state,
    realization: SlotRealization,
    eligible: np.ndarray | None = None,
    options: SolveOptions = SolveOptions(),
) -> Allocation:
    """Maximize value - sum((cost - state.bonus) * x) over eligible users.

    The allocation of dual, lyapunov and radp_vpc; a None state is bonus 0 (greedy).
    """
    kappa = realization.true_costs - (0.0 if state is None else state.bonus)
    return solve(RegulatedInstance.of(realization, kappa, eligible), options).alloc
