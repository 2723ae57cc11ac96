"""The paper's per-slot rules, replayed user by user over a run's selections.

Which users a policy selects is the solver's business; everything else a run
records follows from those selections by the rules below, written out as
plain Python loops over users with no package code:

- warmup: every active user is selected in slots 1..warmup;
- counts: an active user is seen once per slot, and its allocation
  probability is selections / seen;
- the regulated value, moved for active users only (a dropped user's value
  stays frozen at its drop slot):
  - lyapunov: q <- [q - x]^+ + D, bonus q / phi, q starts at 0;
  - auction: r <- ([phi r - x]^+ + D) / phi, bonus r, r starts at D / phi;
  - dual: lambda <- [lambda - eps_t (xbar - D)]^+ with xbar = selections / t
    and eps_t = c / t (harmonic) or c (constant), bonus lambda;
  - radp_vpc (Lee and Hoh, "Sell your experiences", PerCom 2010): winners'
    credits reset to 0, everyone else's grow by alpha, bonus the credit;
  - greedy and random keep a zero level, bonus 0;
- drops, after the warmup and only when dropping is on: an active user whose
  probability is strictly below its threshold leaves for good, in user order.

`replay` returns what TraceMetrics records for these rules, so a run must
equal it bit for bit. Test helper only.
"""

import numpy as np


def _plus(v: float) -> float:
    return max(v, 0.0)


def _initial(spec, d: float) -> float:
    return d / spec.phi if spec.kind == "auction" else 0.0


def _step(spec, level: float, x: bool, d: float, t: int, selections: int) -> float:
    """One active user's regulated value after slot t."""
    xf = 1.0 if x else 0.0
    if spec.kind == "lyapunov":
        return _plus(level - xf) + d
    if spec.kind == "auction":
        return (_plus(spec.phi * level - xf) + d) / spec.phi
    if spec.kind == "dual":
        schedule = spec.schedule
        eps = schedule.coeff / t if schedule.kind == "harmonic" else schedule.coeff
        return _plus(level - eps * (selections / t - d))
    if spec.kind == "radp_vpc":
        return 0.0 if x else level + spec.alpha
    return 0.0


def _bonus(spec, level: float) -> float:
    return level / spec.phi if spec.kind == "lyapunov" else level


def replay(spec, selected: np.ndarray, thresholds: np.ndarray, warmup: int, dropping: bool) -> dict:
    """regulation, alloc_prob_series, active, drop_events and the final level
    of one lane, from its (T, n) selections. Asserts that the
    selections obey the warmup and eligibility rules."""
    t_slots, n = selected.shape
    d = [float(v) for v in thresholds]
    level = [_initial(spec, d[u]) for u in range(n)]
    active = [True] * n
    selections, seen = [0] * n, [0] * n
    regulation, alloc_prob, active_rows, drops = [], [], [], []
    for k in range(t_slots):
        t = k + 1
        x = [bool(v) for v in selected[k]]
        if t <= warmup:
            assert x == active, f"slot {t}: the warmup selects every active user"
        else:
            assert all(active[u] or not x[u] for u in range(n)), f"slot {t}: inactive pick"
        active_rows.append(list(active))
        regulation.append([_bonus(spec, level[u]) if active[u] else 0.0 for u in range(n)])
        for u in range(n):
            if active[u]:
                seen[u] += 1
                selections[u] += x[u]
        prob = [selections[u] / seen[u] for u in range(n)]
        alloc_prob.append(prob)
        for u in range(n):
            if active[u]:
                level[u] = _step(spec, level[u], x[u], d[u], t, selections[u])
        if dropping and t > warmup:
            for u in range(n):
                if active[u] and prob[u] < d[u]:
                    active[u] = False
                    drops.append((u, t))
    return {
        "regulation": np.array(regulation, dtype=float).reshape(t_slots, n),
        "alloc_prob_series": np.array(alloc_prob, dtype=float).reshape(t_slots, n),
        "active": np.array(active_rows, dtype=bool).reshape(t_slots, n),
        "drop_events": tuple(drops),
        "final_level": np.array(level, dtype=float),
    }
