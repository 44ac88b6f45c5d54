"""Shared independent oracles for the test suite.

Everything here is deliberately written as plain brute force, separate
from the library's own code paths, so tests compare two routes.
"""

import numpy as np
import pytest


def brute_interval_dichotomies(points: np.ndarray) -> set[bytes]:
    """All subsets of a 1-d point list realizable as {x: a <= x <= b}.

    Enumerates every subset and keeps those whose value hull contains no
    outside point.  Exponential; for n <= 12 only.
    """
    x = np.asarray(points, dtype=float).reshape(-1)
    n = len(x)
    out = set()
    for mask in range(2 ** n):
        chosen = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        if not chosen.any():
            out.add(np.zeros(n).tobytes())
            continue
        lo, hi = x[chosen].min(), x[chosen].max()
        inside = (x >= lo) & (x <= hi)
        if np.array_equal(inside, chosen):
            out.add(chosen.astype(float).tobytes())
    return out


def brute_local_norm(vectors: np.ndarray, signs: np.ndarray, radius: float) -> float:
    """Exhaustive sup of |n^{-1} sum signs*v| over vectors with mean <= radius."""
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[1]
    best = 0.0
    for v in vectors:
        if v.mean() <= radius:
            best = max(best, abs(float(v @ signs)) / n)
    return best


def brute_symdiff_table(restriction, signs) -> np.ndarray:
    """table[c] = max |sum signs*v| over run-XOR-target vectors with <= c points.

    Walks every run of tie groups (plus the empty run) of a structured
    interval restriction, counting points and signed sums from
    point-level prefix sums; -1 marks budgets below the smallest count.
    Quadratic in the group count.
    """
    n = restriction.n
    cum = np.asarray(restriction.group_cum, dtype=np.int64)
    m = len(cum) - 1
    s = np.asarray(signs, dtype=np.int64)[restriction.sort_order]
    in_t = np.zeros(n, dtype=np.int64)
    if restriction.target_run is not None:
        p, q = restriction.target_run
        in_t[cum[p]:cum[q + 1]] = 1
    count_t, sum_t = int(in_t.sum()), int((s * in_t).sum())
    pre_t = np.concatenate(([0], np.cumsum(in_t)))
    pre_s = np.concatenate(([0], np.cumsum(s)))
    pre_st = np.concatenate(([0], np.cumsum(s * in_t)))
    table = np.full(n + 1, -1, dtype=np.int64)
    table[count_t] = abs(sum_t)  # the empty run
    for i in range(m):
        lo, hi = cum[i], cum[i + 1:]
        run_count = hi - lo
        overlap = pre_t[hi] - pre_t[lo]
        run_sum = pre_s[hi] - pre_s[lo]
        overlap_sum = pre_st[hi] - pre_st[lo]
        count = count_t + run_count - 2 * overlap
        total = sum_t + run_sum - 2 * overlap_sum
        np.maximum.at(table, count, np.abs(total))
    return np.maximum.accumulate(table)


def brute_interval_deviation(points, target, radius, cdf):
    """Slow exact sup |P_n g - P g| over {g = 1_{C sym-diff target}: Pg <= radius}.

    Walks every dichotomy cell of candidate intervals [a, b] plus the
    gap/empty estimates with per-cell corner evaluation, mirroring the
    analysis but coded independently with scalar loops.
    """
    x = np.sort(np.asarray(points, dtype=float).reshape(-1))
    values = np.unique(x)
    n = len(x)
    m = len(values)
    counts = np.array([(x == v).sum() for v in values])
    cum = np.concatenate(([0], np.cumsum(counts)))
    if target is None:
        fc = fd = 0.0
        mass_t = 0.0
        t_members = np.zeros(n, dtype=bool)
    else:
        c, d = target
        fc, fd = cdf(c), cdf(d)
        mass_t = max(fd - fc, 0.0)
        t_members = (x >= c) & (x <= d)
    count_t = int(t_members.sum())

    def mass(fa, fb):
        overlap = max(min(fb, fd) - max(fa, fc), 0.0)
        return mass_t + (fb - fa) - 2.0 * overlap

    best = 0.0

    def consider(pn, pmin, pmax):
        nonlocal best
        if pmin > radius:
            return
        pcap = min(pmax, radius)
        best = max(best, abs(pn - pmin), abs(pn - pcap))

    fv = np.array([cdf(v) for v in values])
    for i in range(m):
        fa_lo = fv[i - 1] if i > 0 else 0.0
        fa_hi = fv[i]
        fa_cands = {fa_lo, fa_hi, min(max(fc, fa_lo), fa_hi), min(max(fd, fa_lo), fa_hi)}
        for j in range(i, m):
            fb_lo = fv[j]
            fb_hi = fv[j + 1] if j + 1 < m else 1.0
            fb_cands = {fb_lo, fb_hi, min(max(fc, fb_lo), fb_hi), min(max(fd, fb_lo), fb_hi)}
            run_count = cum[j + 1] - cum[i]
            inter = int(t_members[cum[i]:cum[j + 1]].sum())
            pn = (run_count + count_t - 2 * inter) / n
            masses = [mass(fa, fb) for fa in fa_cands for fb in fb_cands]
            consider(pn, min(masses), max(masses))
    # gaps and the empty estimate
    edges = np.concatenate(([0.0], fv, [1.0]))
    pn = count_t / n
    consider(pn, mass_t, mass_t)  # empty estimate
    for g in range(m + 1):
        flo, fhi = edges[g], edges[g + 1]
        cands = {flo, fhi, min(max(fc, flo), fhi), min(max(fd, flo), fhi)}
        masses = [mass(fa, fb) for fa in cands for fb in cands if fb >= fa]
        consider(pn, min(masses), max(masses))
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
