"""Per-slot regulated-welfare maximization.

Every selection policy in this package reduces its slot decision to the
same combinatorial problem: pick a user subset maximizing coverage value
minus the sum of per-user effective charges kappa_n. The charge is a true
cost, a bid, or either of those minus a regulation bonus, so kappa_n may
be negative, in which case selecting the user is always profitable.

Three solvers share one deterministic tie-breaking rule so traces and
auction pivots are reproducible: among objectives within TIE_TOL of the
maximum, prefer fewer selected users, then the lexicographically smallest
vector of selected user indices: the order of tiebreak_key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .world import SlotRealization, _unchecked, eligible_mask, frozen_array

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
    "allocate_many",
    "regulated_allocate",
    "subset_value_table",
    "subset_value_rows",
    "subset_linear_table",
    "tiebreak_key",
    "tiebreak_picks",
]

TIE_TOL = 1e-9
DEFAULT_EXACT_LIMIT = 20
DEFAULT_NODE_BUDGET = 20_000
_BLOCK_CELLS = 1 << 16  # per-block temporaries of subset_value_table and tiebreak_picks
_VIEW_LEVEL_BITS = 8  # subset_value_table levels with 2^8 parents or more go by views


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
        n = self.realization.n_users
        costs = frozen_array(self.effective_costs, "effective_costs", size=n)
        object.__setattr__(self, "effective_costs", costs)
        object.__setattr__(self, "eligible", eligible_mask(self.eligible, n))

    @classmethod
    def of(
        cls,
        realization: SlotRealization,
        effective_costs: np.ndarray,
        eligible: np.ndarray | None = None,
    ) -> "RegulatedInstance":
        return cls(realization, effective_costs, eligible)


def freeze_ineligible(
    new: np.ndarray, old: np.ndarray, eligible: np.ndarray | None
) -> np.ndarray:
    """new for eligible users (all when None), old for the rest: dropped users stay frozen."""
    return new if eligible is None else np.where(eligible, new, old)


@dataclass(frozen=True)
class SolveResult:
    """A solver's selection, a read-only bool array of one flag per user, its
    objective and whether it is a proven optimum."""

    selected: np.ndarray
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
        if self.exact_limit < 0:
            raise ValueError(f"exact_limit must be at least 0, got {self.exact_limit}")
        if self.node_budget < 1:
            raise ValueError(f"node_budget must be at least 1, got {self.node_budget}")

    def route(self, m: int) -> str:
        """The solver for m eligible users, "exact", "greedy" or "bnb": the one
        place a mode picks one. Exact mode past exact_limit raises
        SolverCapacityError."""
        route = self.mode
        if route == "auto":
            route = "exact" if m <= self.exact_limit else "bnb"
        if route == "exact" and m > self.exact_limit:
            raise SolverCapacityError(f"{m} eligible users exceed exact_limit={self.exact_limit}")
        return route


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
    (2^(m-j-1), 2^(j+1)) view, and each level repeats the scalar loop's
    additions in its order, so the table matches it bit for bit:

    - below 2^_VIEW_LEVEL_BITS parents, rows go in blocks of about
      _BLOCK_CELLS cells, to keep the temporaries small, and
      `np.add.accumulate` adds j's grids in column order; a grid already
      covered by a parent adds 0.0, which leaves the running sum unchanged.
    - from there on, _add_on_views adds j's grids, in ascending grid order,
      in place to the children of exactly the parents that leave them
      uncovered, which are the loop's own additions; at small levels its
      per-grid call overhead would cost more than the masks it saves.
    """
    m = len(users)
    values = np.zeros(1 << m)
    w = realization.weights.values
    owners = np.zeros(realization.n_grids, dtype=np.int64)  # local bits above j
    for j in range(m - 1, -1, -1):
        grids = realization.regions[int(users[j])]
        rows = values.reshape(-1, 2 << j)  # row p: subsets whose bits above j spell p
        above, weights = owners[grids] >> (j + 1), w[grids]
        if rows.shape[0] >= 1 << _VIEW_LEVEL_BITS:
            _add_on_views(rows, above, weights)
        else:
            above, weights = above[:, None], weights[:, None]
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


def _add_on_views(rows: np.ndarray, above: np.ndarray, weights: np.ndarray) -> None:
    """One level of subset_value_table: the children, copied out of their
    parents and viewed with one length-2 axis per member above the level
    (at most m axes: numpy 1.x's 32 allow tables up to 2^32 cells), get
    each grid's weight, in ascending grid order, on the sub-view at index 0
    on the axes of its owners above the level: the parents leaving it free."""
    d = rows.shape[0].bit_length() - 1  # members above the level; axis a is bit d-1-a
    child = rows[:, 0].copy()
    cube = child.reshape((2,) * d + (1,))
    for owned, weight in zip(above.tolist(), weights.tolist()):
        free = cube[tuple(slice(2 - (owned >> k & 1)) for k in range(d - 1, -1, -1))]
        free += weight
    rows[:, rows.shape[1] // 2] = child


def subset_value_rows(slots: Sequence[SlotRealization]) -> np.ndarray:
    """(S, 2^m) rows: subset_value_table(slot, arange(m)) of each of S slots
    with the same m users and grids, bit for bit, built for all at once.

    The levels run as in subset_value_table. At level j the slots are sorted
    by the length of user j's region, and grid position l is added, in
    ascending grid order, to the children of the prefix of slots whose
    region is longer than l: the same additions in the same order as in each
    slot's own table. Single-slot solves keep the faster subset_value_table.
    """
    s, m = len(slots), slots[0].n_users
    values = np.zeros((s, 1 << m))
    weights = np.stack([slot.weights.values for slot in slots])
    owners = np.zeros(weights.shape, dtype=np.int64)  # local bits above j
    for j in range(m - 1, -1, -1):
        regions = [slot.regions[j] for slot in slots]
        sizes = np.array([r.size for r in regions])
        order = np.argsort(-sizes)
        sizes = sizes[order]
        which = np.repeat(order, sizes)  # the slot of each concatenated grid
        grids = np.concatenate([regions[k] for k in order.tolist()])
        filled = np.arange(sizes[0]) < sizes[:, None]  # [k, l]: k-th slot has an l-th grid
        above = np.zeros(filled.shape, dtype=np.int64)
        above[filled] = owners[which, grids] >> (j + 1)
        added = np.zeros(filled.shape)
        added[filled] = weights[which, grids]
        rows = values.reshape(s, -1, 2 << j)  # [k, p]: slot k's subsets above j spelling p
        parents = np.arange(rows.shape[1])
        child = rows[order, :, 0]
        for l, live in enumerate(np.count_nonzero(filled, axis=0).tolist()):
            head = child[:live]
            free = (above[:live, l, None] & parents) == 0  # else the grid adds 0.0
            np.add(head, added[:live, l, None], out=head, where=free)
        rows[order, :, 1 << j] = child
        owners[which, grids] |= 1 << j
    return values


def subset_linear_table(per_user: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of per-user terms over every subset, indexed by local bit mask
    along the last axis; leading axes, such as one row per slot, broadcast.
    Written into `out` if given."""
    terms = np.asarray(per_user, dtype=float)
    table = np.empty(terms.shape[:-1] + (1 << terms.shape[-1],)) if out is None else out
    table[..., 0] = 0.0
    for j, v in enumerate(terms.T[..., None]):  # subset s | 2^j, s < 2^j: s plus term j
        np.add(table[..., : 1 << j], v, out=table[..., 1 << j : 2 << j])
    return table


def tiebreak_key(mask, m: int):
    """Tie-break key of local masks, smaller for the preferred one:
    popcount * 2^(m+1) - the mask's m bits reversed.

    For equal popcount, the lexicographically smaller selected-index vector
    has the larger reversed-bit value. `mask` is an int64 array (m <= 56),
    whose key is summed in place, or a Python int of any width.
    """
    key = mask & 0
    for j in range(m):
        key += (mask >> j & 1) * ((2 << m) - (1 << (m - 1 - j)))
    return key


def tiebreak_picks(
    rows: np.ndarray, add: np.ndarray, which: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row maxima of rows + add, each row's pick, the local mask of least
    tiebreak_key among its columns within TIE_TOL of the row maximum, and
    each row's runner-up: the largest column other than its first maximum
    (-inf for a row of one column).

    `rows` and `add`, one row broadcast to all, have 2^m columns indexed by
    local bit mask. With `which`, only rows[which] are scored, in that
    order. Rows go in blocks of about _BLOCK_CELLS cells through one float
    and one boolean buffer. A row's first maximum is its pick unless the
    runner-up is within TIE_TOL; an exact duplicate maximum always is. The
    rows from a block's first such near tie to its last take the full rule:
    their maximum by np.max, and among the columns >= fl(max - TIE_TOL) the
    one of least tiebreak_key, in O(k) for k such columns.

    On a -0.0/0.0 tie, the zero sign of np.max depends on the order it reads
    the columns in. No output reads it: the solvers and the unconstrained
    optimum read the entry at the pick, and the dual sweep sums maxima onto
    0.0 and subtracts TIE_TOL from a maximum less its runner-up, where a
    zero's sign never shows. Nor does any caller's row + add hold a -0.0:
    a table entry is a coverage value, at least +0.0, less a cost, and
    x - y or x + y is -0.0 only when x is.
    """
    t = rows.shape[0] if which is None else len(which)
    size = rows.shape[1]
    height = max(1, min(t, _BLOCK_CELLS // size))  # zero rows give empty results
    obj = np.empty((height, size))
    hit = np.empty((height, size), dtype=bool)
    row_best = np.empty(t)
    picks = np.empty(t, dtype=np.intp)
    runner = np.empty(t)
    for lo in range(0, t, height):
        hi = min(lo + height, t)
        block = obj[: hi - lo]
        if which is None:
            np.add(rows[lo:hi], add, out=block)
        else:  # mode="raise" would buffer a copy of the whole block
            np.take(rows, which[lo:hi], axis=0, out=block, mode="clip")
            block += add
        top = np.argmax(block, axis=1, out=picks[lo:hi])
        at = (np.arange(hi - lo), top)
        row_best[lo:hi] = block[at]
        best = row_best[lo:hi]
        block[at] = -np.inf
        np.max(block, axis=1, out=runner[lo:hi])
        block[at] = best
        near = np.flatnonzero(runner[lo:hi] >= best - TIE_TOL)
        if near.size:
            span = slice(near[0], near[-1] + 1)
            tied = block[span]
            top_best = np.max(tied, axis=1, out=best[span])
            near_hit = np.greater_equal(tied, (top_best - TIE_TOL)[:, None], out=hit[span])
            counts = np.count_nonzero(near_hit, axis=1)  # each row holds its maximum
            c = np.flatnonzero(near_hit)
            c &= size - 1  # flat index to column
            key = tiebreak_key(c, size.bit_length() - 1)
            least = np.minimum.reduceat(key, np.cumsum(counts) - counts)
            top[span] = c[key == np.repeat(least, counts)]  # a row's keys are distinct
    return row_best, picks, runner


def _local_mask_to_selected(mask: int, users: np.ndarray, n_users: int) -> np.ndarray:
    """The read-only selection of the users at the set bits of a local mask."""
    selected = np.zeros(n_users, dtype=bool)
    while mask:
        low = mask & -mask
        selected[int(users[low.bit_length() - 1])] = True
        mask ^= low
    selected.flags.writeable = False
    return selected


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_exact(inst: RegulatedInstance, exact_limit: int = DEFAULT_EXACT_LIMIT) -> SolveResult:
    """Global maximizer over all subsets of eligible users: solve in exact mode.

    Raises SolverCapacityError when more than exact_limit users are
    eligible. Nothing falls back to another solver: SolveOptions.route
    decides which one a run uses.
    """
    return solve(inst, SolveOptions("exact", exact_limit))


def solve_greedy(inst: RegulatedInstance) -> SolveResult:
    """Lazy marginal-gain greedy.

    Users with negative effective cost are selected unconditionally first
    (their gain is positive regardless of coverage). Remaining users are
    added by largest marginal coverage value minus charge, lowest index on
    ties, while the best gain is strictly positive. Marginal gains only
    shrink as coverage grows, so stale heap entries are safe to re-check.

    Every heap key starts from realization.region_values, built once per
    slot for every greedy row, even after a negative-charge take has zeroed
    some grids: weights are non-negative and rounding is monotone, so a
    region's value on the slot's own weights bounds its marginal on any
    remaining weights, and a lazy key need only be an upper bound. The top
    is taken only once its key is its fresh marginal and it still leads,
    so the picks, and the order their gains are added in, do not depend on
    how loose the keys were. A negative-charge take adds its marginal on
    the remaining weights. Every sum is np.add.reduce, the routine of
    ndarray.sum, so the bits do not depend on which of the two a marginal
    came from. (key, user) is a strict total order, so the heap pops in
    one order however it was built.
    """
    real = inst.realization
    w_rem = real.weights.values.copy()
    regions = real.regions
    costs = inst.effective_costs.tolist()
    values = real.region_values
    add = np.add.reduce
    selected = np.zeros(real.n_users, dtype=bool)
    objective = 0.0

    heap: list[tuple[float, int]] = []
    for u in np.flatnonzero(inst.eligible).tolist():
        kappa = costs[u]
        if kappa < 0:
            selected[u] = True
            objective += float(add(w_rem[regions[u]])) - kappa
            w_rem[regions[u]] = 0.0
        else:
            heap.append((-(values[u] - kappa), u))
    heapq.heapify(heap)

    while heap:
        stale_key, u = heap[0]
        gain = float(add(w_rem[regions[u]])) - costs[u]
        if -gain != stale_key:
            # the top's key fell: put it back and take it only if it still leads
            heapq.heapreplace(heap, (-gain, u))
            if heap[0][1] != u:
                continue
        heapq.heappop(heap)
        if gain <= 0.0:
            break
        selected[u] = True
        objective += gain
        w_rem[regions[u]] = 0.0

    selected.flags.writeable = False
    return SolveResult(selected, objective, False)


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
        return SolveResult(_local_mask_to_selected(0, users, n), 0.0, True)

    w = real.weights.values.tolist()
    # one bit per grid; a region's grids are distinct, so the sum is their union
    masks = [sum(1 << g for g in real.regions[int(u)].tolist()) for u in users]
    kappa = [float(inst.effective_costs[int(u)]) for u in users]

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
        if seed.selected[int(users[j])]:
            seed_local |= 1 << j

    inc_mask = seed_local
    inc_obj = seed.objective
    inc_key = tiebreak_key(seed_local, m)
    best_seen = seed.objective

    def consider(mask: int, obj: float) -> None:
        nonlocal inc_mask, inc_obj, inc_key, best_seen
        if obj > best_seen:
            best_seen = obj
        if obj > inc_obj + TIE_TOL:
            inc_mask, inc_obj, inc_key = mask, obj, tiebreak_key(mask, m)
        elif obj >= inc_obj - TIE_TOL:
            key = tiebreak_key(mask, m)
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
        if bound <= best_seen + TIE_TOL and s_mask.bit_count() >= inc_mask.bit_count():
            # every strict superset loses the tie-break on user count
            continue
        pick = max(range(len(undecided)), key=lambda i: (gains[i], -undecided[i]))
        j = undecided[pick]
        rest = undecided[:pick] + undecided[pick + 1 :]
        stack.append((s_mask, covered, obj, rest))
        stack.append((s_mask | (1 << j), covered | masks[j], obj + gains[pick], rest))

    return SolveResult(
        _local_mask_to_selected(inc_mask, users, n), inc_obj, complete
    )


def solve(inst: RegulatedInstance, options: SolveOptions = SolveOptions()) -> SolveResult:
    """The instance as allocate_many's one row."""
    return allocate_many(inst.realization, inst.effective_costs[None], inst.eligible, options)[0][0]


def regulated_allocate(
    state,
    realization: SlotRealization,
    eligible: np.ndarray | None = None,
    options: SolveOptions = SolveOptions(),
) -> np.ndarray:
    """Maximize value - sum((cost - state.bonus) * x) over eligible users, one
    row of allocate_many (through solve); a None state is bonus 0."""
    kappa = realization.true_costs - (0.0 if state is None else state.bonus)
    return solve(RegulatedInstance.of(realization, kappa, eligible), options).selected


def allocate_many(
    realization: SlotRealization,
    charges: np.ndarray,
    eligible: np.ndarray | None,
    options: SolveOptions = SolveOptions(),
) -> tuple[list[SolveResult], np.ndarray | None]:
    """One SolveResult for each of the L rows of (L, n) charges on one slot and
    eligible set, each as if solved alone on the route options.route picks.

    The exact route builds the slot's value table once for all rows. It also
    returns the objective, value minus costs indexed by local bit mask, from
    which the auction reads its pivots; the greedy and bnb routes solve
    row by row and return None in its place. The charges and the mask are
    checked once, whatever the route: a None mask is everyone.
    """
    n = realization.n_users
    charges = frozen_array(charges, "charges", ndim=2)
    if charges.shape[1] != n:
        raise ValueError(f"charges must have one column per user, {n}, got {charges.shape}")
    eligible = eligible_mask(eligible, n)
    users = np.flatnonzero(eligible)
    route = options.route(users.size)
    if route != "exact":
        checked = dict(realization=realization, eligible=eligible)
        instances = [_unchecked(RegulatedInstance, effective_costs=row, **checked) for row in charges]
        if route == "greedy":
            return [solve_greedy(inst) for inst in instances], None
        return [branch_and_bound(inst, options.node_budget) for inst in instances], None
    costs = subset_linear_table(charges[:, users])
    objective = np.subtract(subset_value_table(realization, users), costs, out=costs)
    _, picks, _ = tiebreak_picks(objective, 0.0)
    selected = np.zeros((picks.size, n), dtype=bool)
    selected[:, users] = picks[:, None] >> np.arange(users.size) & 1
    selected.flags.writeable = False  # and so each row
    best = objective[np.arange(picks.size), picks].tolist()
    results = [SolveResult(row, b, True) for row, b in zip(selected, best)]
    return results, objective
