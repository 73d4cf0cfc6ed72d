"""Summary statistics and the parent/change comparison."""

import statistics


def tail(values):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, the
    100 (n - 10)/n percentile.  Below 11 samples no percentile has ten
    samples beyond it, and the maximum is returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare(parent, change, bound, better="lower"):
    """Verdict for one metric of one workload.

    parent, change: {seed: value}.  Pairs are runs with the same seed.
    Returns a dict with both sides' quartiles, pairs won by the change,
    the bound and a verdict: "unresolved" when either side's spread
    exceeds the bound (unless every change run beats every parent run),
    "regressed" when the change median is worse by more than the bound,
    "improved" when the change wins at least nine tenths of the pairs and
    the medians differ by more than the parent's interquartile distance,
    and "no change" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent.values())
    cq1, cmed, cq3 = quartiles(change.values())
    seeds = sorted(set(parent) & set(change))
    won = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    lost = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    all_better = max(sign * v for v in change.values()) < min(sign * v for v in parent.values())
    if pmed:
        worse_by = sign * (cmed - pmed) / abs(pmed)
    else:
        worse_by = float("inf") if sign * cmed > 0 else 0.0
    if max(spread(parent.values()), spread(change.values())) > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif seeds and won >= 0.9 * len(seeds) and abs(cmed - pmed) > (pq3 - pq1):
        verdict = "improved"
    else:
        verdict = "no change"
    return {
        "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "pairs": len(seeds),
        "won": won, "lost": lost, "bound": bound, "verdict": verdict,
    }
