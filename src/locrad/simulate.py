"""Synthetic learning problems with known distribution and target.

Everything here exists to verify the data-only bound against ground
truth: draw samples from a known P, learn a consistent estimate, compute
its exact risk, and compare against the localization output and against
the oracle radius sequence r_{k+1} = sup |P_n - P| over {f: Pf <= r_k}.

Reproducibility: all per-replication randomness is derived from
(master_seed, replication_index, purpose_tag) hashed through numpy's
SeedSequence, so serial and parallel execution produce identical reports.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classes import (
    ConceptClass,
    InconsistentLabelsError,
    Sample,
    reduce_by_labels,
    sorted_groups,
)
from .concentration import LadderInputs, phi_ladder
from .rademacher import LocalNormEvaluator, RademacherDraw, risk_bound, tail_certificate

TAG_SAMPLE = 0
TAG_SIGNS = 1
TAG_MC = 2

#: Cells of the exact deviation table grow quadratically in n.
MAX_EXACT_TABLE_N = 2048


def derive_seed(master_seed: int, *parts: int) -> int:
    """Stable 64-bit stream seed for (master_seed, replication, purpose)."""
    seq = np.random.SeedSequence([int(master_seed), *[int(p) for p in parts]])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DistributionSpec:
    """Sampling distribution on [0, 1]^d.

    "uniform" covers any dimension; "piecewise" is a one-dimensional
    piecewise-constant density given by breakpoints 0 = b_0 < ... < b_k = 1
    and nonnegative weights (normalized internally).  density_bound is
    the declared B with 1/B <= p <= B, infinite when a piece has zero
    weight.
    """

    kind: str
    dim: int = 1
    breakpoints: np.ndarray | None = None
    densities: np.ndarray | None = None
    density_bound: float = 1.0
    _cdf_knots: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def uniform(cls, dim: int = 1) -> "DistributionSpec":
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        return cls(kind="uniform", dim=dim)

    @classmethod
    def piecewise(cls, breakpoints, weights) -> "DistributionSpec":
        bp = np.asarray(breakpoints, dtype=float)
        w = np.asarray(weights, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if w.shape != (len(bp) - 1,) or np.any(w < 0.0):
            raise ValueError("one nonnegative weight per piece required")
        widths = np.diff(bp)
        total = float((w * widths).sum())
        if total <= 0.0:
            raise ValueError("density must have positive total mass")
        dens = w / total
        cdf = np.concatenate(([0.0], np.cumsum(dens * widths)))
        cdf[-1] = 1.0
        bound = math.inf if dens.min() == 0.0 else max(dens.max(), 1.0 / dens.min())
        bound = max(bound, 1.0)
        return cls(
            kind="piecewise",
            dim=1,
            breakpoints=bp,
            densities=dens,
            density_bound=bound,
            _cdf_knots=cdf,
        )

    def cdf(self, x):
        """P((-inf, x]) evaluated pointwise (d = 1 only)."""
        if self.dim != 1:
            raise ValueError("cdf is only defined for one-dimensional distributions")
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            out = np.clip(x, 0.0, 1.0)
        else:
            out = np.interp(x, self.breakpoints, self._cdf_knots)
        return out if out.ndim else float(out)

    def measure(self, lo: float, hi: float) -> float:
        """Mass of the closed interval [lo, hi] (zero when lo > hi)."""
        if lo > hi:
            return 0.0
        return float(self.cdf(hi)) - float(self.cdf(lo))

    def inverse_cdf(self, u):
        if self.dim != 1:
            raise ValueError("inverse cdf is only defined for d = 1")
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return u
        return np.interp(u, self._cdf_knots, self.breakpoints)


def draw_sample(dist: DistributionSpec, n: int, seed: int) -> Sample:
    """Deterministic i.i.d. sample of size n from the distribution."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    if dist.kind == "uniform":
        points = rng.random((n, dist.dim))
    elif dist.kind == "piecewise":
        points = dist.inverse_cdf(rng.random(n)).reshape(-1, 1)
    else:
        raise ValueError(f"unknown distribution kind {dist.kind!r}")
    return Sample(points=points, seed=int(seed))


def interval_labels(target: tuple[float, float] | None, sample: Sample) -> np.ndarray:
    """Labels Y_j = 1{X_j in target} for an interval target (None = empty)."""
    if target is None:
        return np.zeros(sample.n)
    lo, hi = target
    x = sample.points[:, 0]
    return ((x >= lo) & (x <= hi)).astype(float)


def minimal_interval_learner(
    sample: Sample, labels
) -> tuple[float, float] | None:
    """Smallest closed interval containing every positive point.

    Returns None for the empty interval when no point is positive.
    Raises InconsistentLabelsError when a negative point lies inside the
    positive hull (the labels cannot come from an interval target).
    """
    labels = np.asarray(labels, dtype=float)
    x = sample.points[:, 0]
    pos = labels == 1.0
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InconsistentLabelsError("interval labels must be 0/1")
    if not pos.any():
        return None
    lo = float(x[pos].min())
    hi = float(x[pos].max())
    inside_negative = (~pos) & (x >= lo) & (x <= hi)
    if inside_negative.any():
        raise InconsistentLabelsError(
            "a negative point lies between two positives; labels are not "
            "realizable by an interval"
        )
    return lo, hi


def _symdiff_mass(fa, fb, fc, fd, target_mass):
    """True mass of [a, b] symmetric-difference target, via cdf values."""
    overlap = np.maximum(np.minimum(fb, fd) - np.maximum(fa, fc), 0.0)
    return target_mass + (fb - fa) - 2.0 * overlap


def true_risk(estimate, target, dist: DistributionSpec) -> float:
    """Exact risk P|f_est - f_tgt| of indicator estimates.

    Supported: interval estimate and target (tuples, or None for the
    empty interval) under a one-dimensional distribution.
    """
    if dist.dim == 1 and _is_interval(estimate) and _is_interval(target):
        fe_lo, fe_hi = _interval_cdfs(estimate, dist)
        ft_lo, ft_hi = _interval_cdfs(target, dist)
        mass_t = max(ft_hi - ft_lo, 0.0)
        return float(_symdiff_mass(fe_lo, fe_hi, ft_lo, ft_hi, mass_t))
    raise ValueError("exact risk needs interval estimate and target on a 1-d distribution")


def _is_interval(obj) -> bool:
    return obj is None or (
        isinstance(obj, (tuple, list)) and len(obj) == 2
        and np.isscalar(obj[0]) and np.isscalar(obj[1])
    )


def _interval_cdfs(interval, dist) -> tuple[float, float]:
    if interval is None:
        return 0.0, 0.0
    lo, hi = interval
    if lo > hi:
        return 0.0, 0.0
    return float(dist.cdf(lo)), float(dist.cdf(hi))


def worst_consistent_risk(
    sample: Sample, labels, target: tuple[float, float] | None, dist: DistributionSpec
) -> tuple[float, tuple[float, float] | None]:
    """Largest exact risk over all intervals consistent with the labels.

    The supremum is taken over the closure of the consistent region;
    under an atomless distribution it equals the attainable supremum.
    Returns (risk, witness interval).
    """
    labels = np.asarray(labels, dtype=float)
    values = sample.sorted_values()
    lab_sorted = labels[sample.sort_order]
    fc, fd = _interval_cdfs(target, dist)
    mass_t = max(fd - fc, 0.0)
    pos = lab_sorted == 1.0

    if pos.any():
        first, last = int(np.argmax(pos)), len(pos) - 1 - int(np.argmax(pos[::-1]))
        if np.any(lab_sorted[first:last + 1] == 0.0):
            raise InconsistentLabelsError("labels are not realizable by an interval")
        p_lo, p_hi = float(values[first]), float(values[last])
        left_negatives = values[:first][lab_sorted[:first] == 0.0]
        right_negatives = values[last + 1:][lab_sorted[last + 1:] == 0.0]
        if (len(left_negatives) and left_negatives.max() == p_lo) or (
            len(right_negatives) and right_negatives.min() == p_hi
        ):
            # a negative tied in value with a hull positive: no interval
            # can separate them
            raise InconsistentLabelsError("labels are not realizable by an interval")
        a_floor = float(left_negatives.max()) if len(left_negatives) else 0.0
        b_ceil = float(right_negatives.min()) if len(right_negatives) else 1.0
        fa_lo, fa_hi = float(dist.cdf(a_floor)), float(dist.cdf(p_lo))
        fb_lo, fb_hi = float(dist.cdf(p_hi)), float(dist.cdf(b_ceil))
        a_x = [a_floor, p_lo, min(max(target[0], a_floor), p_lo) if target else a_floor,
               min(max(target[1], a_floor), p_lo) if target else a_floor]
        b_x = [p_hi, b_ceil, min(max(target[0], p_hi), b_ceil) if target else p_hi,
               min(max(target[1], p_hi), b_ceil) if target else p_hi]
        fa_cands = [fa_lo, fa_hi, float(np.clip(fc, fa_lo, fa_hi)), float(np.clip(fd, fa_lo, fa_hi))]
        fb_cands = [fb_lo, fb_hi, float(np.clip(fc, fb_lo, fb_hi)), float(np.clip(fd, fb_lo, fb_hi))]
        best = -1.0
        witness = (p_lo, p_hi)
        for ai, fa in enumerate(fa_cands):
            for bi, fb in enumerate(fb_cands):
                val = float(_symdiff_mass(fa, fb, fc, fd, mass_t))
                if val > best:
                    best = val
                    witness = (a_x[ai], b_x[bi])
        return best, witness

    # no positives: the estimate must avoid every sample point entirely
    edges = np.concatenate(([0.0], values, [1.0]))
    f_edges = np.asarray(dist.cdf(edges), dtype=float)
    best = mass_t  # the empty estimate
    witness: tuple[float, float] | None = None
    for g in range(len(edges) - 1):
        flo, fhi = f_edges[g], f_edges[g + 1]
        w1 = max(min(fhi, fc) - flo, 0.0)
        w2 = max(min(fhi, fd) - max(flo, fc), 0.0)
        w3 = max(fhi - max(flo, fd), 0.0)
        combos = (0.0, w1, -w2, w3, w1 - w2, -w2 + w3, w1 - w2 + w3)
        val = mass_t + max(combos)
        if val > best:
            best = val
            witness = (float(edges[g]), float(edges[g + 1]))
    return best, witness


class IntervalSymdiffTable:
    """Exact dichotomy-cell table for the reduced interval class.

    Each candidate estimate [a, b] against a fixed interval target cuts a
    dichotomy out of the sample; within the cell of one dichotomy the
    empirical symmetric-difference mass is constant while the true mass
    sweeps an interval [pmin, pmax].  The table stores both, so suprema
    such as sup |P_n - P| over the oracle ball {g: Pg <= r} and per-draw
    Rademacher suprema over that ball are exact masked maxima.

    Cell count is quadratic in the number of distinct points, so this is
    capped at n <= MAX_EXACT_TABLE_N.
    """

    def __init__(
        self,
        sample: Sample,
        target: tuple[float, float] | None,
        dist: DistributionSpec,
    ):
        if sample.n > MAX_EXACT_TABLE_N:
            raise ValueError(
                f"exact table is quadratic in n; cap is {MAX_EXACT_TABLE_N}"
            )
        self.n = sample.n
        self.sample = sample
        values, cum = sorted_groups(sample)
        m = len(values)
        self._cum = cum.astype(np.int64)
        self._sort_order = sample.sort_order
        fv = np.asarray(dist.cdf(values), dtype=float)
        fc, fd = _interval_cdfs(target, dist)
        mass_t = max(fd - fc, 0.0)
        self.target_mass = mass_t
        if target is None:
            p, q = 0, -1
        else:
            lo, hi = target
            p = int(np.searchsorted(values, lo, side="left"))
            q = int(np.searchsorted(values, hi, side="right")) - 1
        self._target_span = (p, q)
        count_t = int(cum[q + 1] - cum[p]) if q >= p else 0

        # candidate cdf values for the left endpoint of a run starting at
        # group i (a in (v_{i-1}, v_i], closure) and for the right endpoint
        # of a run ending at group j (b in [v_j, v_{j+1}), closure)
        fa_low = np.concatenate(([0.0], fv[:-1]))
        fa_high = fv
        fb_low = fv
        fb_high = np.concatenate((fv[1:], [1.0]))
        a_cands = np.stack([
            fa_low, fa_high, np.clip(fc, fa_low, fa_high), np.clip(fd, fa_low, fa_high)
        ])
        b_cands = np.stack([
            fb_low, fb_high, np.clip(fc, fb_low, fb_high), np.clip(fd, fb_low, fb_high)
        ])

        reps = np.arange(m, 0, -1, dtype=np.int64)
        i_idx = np.repeat(np.arange(m, dtype=np.int64), reps)
        j_idx = np.concatenate([np.arange(i, m, dtype=np.int64) for i in range(m)])
        self._i_idx = i_idx
        self._j_idx = j_idx

        cnt_run = cum[j_idx + 1] - cum[i_idx]
        lo_g = np.maximum(i_idx, p)
        hi_g = np.minimum(j_idx, q)
        overlap = lo_g <= hi_g
        cnt_int = np.where(overlap, cum[hi_g + 1] - cum[np.minimum(lo_g, m)], 0)
        self._pn = (cnt_run + count_t - 2 * cnt_int) / self.n
        self._count_t = count_t
        self._overlap = overlap
        self._lo_g = lo_g
        self._hi_g = hi_g

        pmin = np.full(len(i_idx), np.inf)
        pmax = np.full(len(i_idx), -np.inf)
        for ka in range(4):
            fa = a_cands[ka][i_idx]
            for kb in range(4):
                fb = b_cands[kb][j_idx]
                val = _symdiff_mass(fa, fb, fc, fd, mass_t)
                np.minimum(pmin, val, out=pmin)
                np.maximum(pmax, val, out=pmax)
        self._pmin = pmin
        self._pmax = pmax

        # gap cells: estimates avoiding every sample point, plus the empty
        # estimate (mass exactly target_mass, attained at a = b)
        edges_lo = np.concatenate(([0.0], fv))
        edges_hi = np.concatenate((fv, [1.0]))
        w1 = np.maximum(np.minimum(edges_hi, fc) - edges_lo, 0.0)
        w2 = np.maximum(np.minimum(edges_hi, fd) - np.maximum(edges_lo, fc), 0.0)
        w3 = np.maximum(edges_hi - np.maximum(edges_lo, fd), 0.0)
        combo = np.stack([np.zeros_like(w1), w1, -w2, w3, w1 - w2, -w2 + w3, w1 - w2 + w3])
        self._gap_pmin = mass_t + combo.min(axis=0)
        self._gap_pmax = mass_t + combo.max(axis=0)
        self._gap_pn = count_t / self.n

    def sup_deviation(self, radius: float) -> float:
        """sup |P_n g - P g| over reduced members g with P g <= radius."""
        best = 0.0
        feasible = self._pmin <= radius
        if feasible.any():
            pmin = self._pmin[feasible]
            pcap = np.minimum(self._pmax[feasible], radius)
            pn = self._pn[feasible]
            vals = np.maximum(np.abs(pn - pmin), np.abs(pn - pcap))
            best = float(vals.max())
        g_feasible = self._gap_pmin <= radius
        if g_feasible.any():
            pmin = self._gap_pmin[g_feasible]
            pcap = np.minimum(self._gap_pmax[g_feasible], radius)
            vals = np.maximum(np.abs(self._gap_pn - pmin), np.abs(self._gap_pn - pcap))
            best = max(best, float(vals.max()))
        return best

    def sup_rademacher(self, signs: np.ndarray, radius: float) -> float:
        """sup |n^{-1} sum_i eps_i g(X_i)| over members with P g <= radius."""
        cum = self._cum
        sorted_signs = np.asarray(signs)[self._sort_order]
        prefix = np.concatenate(([0], np.cumsum(sorted_signs)))[cum]
        p, q = self._target_span
        signed_t = int(prefix[q + 1] - prefix[p]) if q >= p else 0
        sgn_run = prefix[self._j_idx + 1] - prefix[self._i_idx]
        sgn_int = np.where(
            self._overlap,
            prefix[self._hi_g + 1] - prefix[np.minimum(self._lo_g, len(cum) - 1)],
            0,
        )
        signed = np.abs(sgn_run + signed_t - 2 * sgn_int)
        best = 0.0
        feasible = self._pmin <= radius
        if feasible.any():
            best = float(signed[feasible].max()) / self.n
        if (self._gap_pmin <= radius).any():
            best = max(best, abs(signed_t) / self.n)
        return best


def interval_deviation_scan(sample: Sample, dist: DistributionSpec) -> float:
    """Exact sup over all intervals (and the empty set) of |(P_n - P)[a, b]|.

    Linear-time two-sided scan over the sorted sample; used for large-n
    trend checks and as an independent cross-check of the cell table at
    radius 1.
    """
    values, cum = sorted_groups(sample)
    n = sample.n
    m = len(values)
    fv = np.asarray(dist.cdf(values), dtype=float)

    d1 = cum[1:] / n - fv                      # b at a point, F_n counts through it
    d2 = cum[:-1] / n - fv                     # a at a point, F_n(a-) excludes it
    sup_pos = float(np.max(d1 - np.minimum.accumulate(d2)))

    f_end = np.concatenate((fv, [1.0]))        # right edge of gap g = 0..m
    f_start = np.concatenate(([0.0], fv))      # left edge of gap g
    d3 = f_end - cum / n
    d4 = f_start - cum / n
    sup_neg = float(np.max(d3 - np.minimum.accumulate(d4)))
    return max(sup_pos, sup_neg, 0.0)


def oracle_sequence(
    target: tuple[float, float] | None,
    sample: Sample,
    dist: DistributionSpec,
    k_max: int,
) -> list[float]:
    """Oracle radii r_0 = 1, r_{k+1} = sup |P_n - P| over {g: Pg <= r_k}.

    The sequence is nonincreasing and every term dominates the risk of
    every consistent estimate.  Exact for the interval class under a known
    one-dimensional distribution.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    table = IntervalSymdiffTable(sample, target, dist)
    radii = [1.0]
    r = 1.0
    for _ in range(k_max):
        r = table.sup_deviation(r)
        radii.append(r)
    return radii


@dataclass(frozen=True)
class ReplicationResult:
    """One replication: bound vs exact risk, with seed provenance."""

    rep: int
    n: int
    eps: float
    iterations: int
    bound: float
    risk: float
    violated: bool
    sample_seed: int
    signs_seed: int
    trace: tuple[float, ...] = ()

    def __post_init__(self):
        if self.violated != (self.risk >= self.bound):
            raise ValueError("violation flag must equal (risk >= bound)")


@dataclass
class ExperimentReport:
    """Replication rows plus aggregates, with the full config echoed."""

    kind: str
    config: dict
    rows: list[ReplicationResult]
    aggregates: dict

    def csv_columns(self) -> list[str]:
        return ["rep", "n", "eps", "N", "bound", "risk", "violated"]

    def csv_rows(self) -> list[list]:
        return [
            [r.rep, r.n, r.eps, r.iterations, r.bound, r.risk, int(r.violated)]
            for r in self.rows
        ]

    def to_json_payload(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "aggregates": self.aggregates,
            "rows": [
                {
                    "rep": r.rep, "n": r.n, "eps": r.eps, "N": r.iterations,
                    "bound": r.bound, "risk": r.risk, "violated": bool(r.violated),
                    "sample_seed": r.sample_seed, "signs_seed": r.signs_seed,
                }
                for r in self.rows
            ],
        }


def _env_workers() -> int:
    """LOCRAD_THREADS as a worker count in [1, cpu count]; 1 when unset or bad."""
    raw = os.environ.get("LOCRAD_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def _run_indexed(task, indices, workers):
    if workers <= 1:
        return [task(i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, indices))


def _quantiles(values: np.ndarray) -> dict:
    return {
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "q05": float(np.quantile(values, 0.05)),
        "q95": float(np.quantile(values, 0.95)),
    }


def _replicate(
    master_seed: int,
    key: tuple[int, ...],
    n: int,
    dist: DistributionSpec,
    target: tuple[float, float] | None,
    vectors: np.ndarray | None,
    learner: str,
    bound_kwargs: dict,
) -> ReplicationResult:
    """One replication: sample, bound, learner risk.

    The sample and sign streams are derived from (master_seed, *key, tag);
    the replication index is the last entry of key.  With vectors (a finite
    class on n points) the labels are its first row and the learner is that
    target member, whose risk is 0; otherwise the class is intervals and
    the learner is "minimal" or "worst".  bound_kwargs go to risk_bound.
    """
    sample_seed = derive_seed(master_seed, *key, TAG_SAMPLE)
    signs_seed = derive_seed(master_seed, *key, TAG_SIGNS)
    sample = draw_sample(dist, n, sample_seed)
    if vectors is not None:
        concept, labels = ConceptClass.finite(vectors), vectors[0]
    else:
        concept, labels = ConceptClass.intervals(), interval_labels(target, sample)
    result = risk_bound(concept, labels, sample, seed=signs_seed, **bound_kwargs)
    if vectors is not None:
        risk = 0.0
    elif learner == "minimal":
        risk = true_risk(minimal_interval_learner(sample, labels), target, dist)
    else:
        risk, _ = worst_consistent_risk(sample, labels, target, dist)
    return ReplicationResult(
        rep=key[-1], n=n, eps=result.eps, iterations=result.iterations,
        bound=result.bound, risk=risk, violated=bool(risk >= result.bound),
        sample_seed=sample_seed, signs_seed=signs_seed,
        trace=result.trace.values,
    )


def run_coverage(
    *,
    target: tuple[float, float] | None,
    n: int,
    reps: int,
    master_seed: int,
    dist: DistributionSpec | None = None,
    eps: float | None = None,
    delta_conf: float | None = None,
    gamma: float = 0.5,
    gamma_prime: float = 0.5,
    constants_mode: str = "safe",
    custom_constants: tuple[float, float, float] | None = None,
    iteration_override: int | None = None,
    learner: str = "minimal",
    workers: int | None = None,
) -> ExperimentReport:
    """Replicated coverage experiment for the interval class.

    Per replication: draw a sample and a sign vector from streams derived
    from (master_seed, rep), compute the localization bound, learn a
    consistent estimate, evaluate its exact risk, and flag a violation
    when risk >= bound.  The aggregate violation frequency is compared
    against the tail certificate.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if learner not in ("minimal", "worst"):
        raise ValueError(f"unknown learner {learner!r}")
    dist = dist if dist is not None else DistributionSpec.uniform(1)
    bound_kwargs = dict(
        delta_conf=delta_conf, eps=eps, gamma=gamma, gamma_prime=gamma_prime,
        constants_mode=constants_mode, custom_constants=custom_constants,
        iteration_override=iteration_override,
    )
    workers = workers if workers is not None else _env_workers()
    rows = _run_indexed(
        lambda rep: _replicate(
            master_seed, (rep,), n, dist, target, None, learner, bound_kwargs
        ),
        range(reps), workers,
    )
    bounds = np.array([r.bound for r in rows])
    risks = np.array([r.risk for r in rows])
    violations = sum(r.violated for r in rows)
    certificate = tail_certificate(rows[0].iterations, n, rows[0].eps)
    frequency = violations / reps
    binom_p = min(certificate, 1.0)  # the certificate is vacuous above 1
    tolerance = certificate + 3.0 * math.sqrt(binom_p * (1.0 - binom_p) / reps) + 1.0 / reps
    config = {
        "command": "coverage", "n": n, "reps": reps, "master_seed": master_seed,
        "target": list(target) if target else None, "dist": dist.kind,
        "eps": eps, "delta_conf": delta_conf, "gamma": gamma,
        "gamma_prime": gamma_prime, "constants_mode": constants_mode,
        "custom_constants": list(custom_constants) if custom_constants else None,
        "iteration_override": iteration_override, "learner": learner,
    }
    aggregates = {
        "violations": violations,
        "violation_frequency": frequency,
        "certificate": certificate,
        "violation_tolerance": tolerance,
        "bound": _quantiles(bounds),
        "risk": _quantiles(risks),
        "eps": rows[0].eps,
        "iterations": rows[0].iterations,
    }
    return ExperimentReport("coverage", config, rows, aggregates)


def run_rates(
    *,
    n_grid,
    reps: int,
    master_seed: int,
    dist: DistributionSpec | None = None,
    target: tuple[float, float] | None = None,
    finite_vectors: np.ndarray | None = None,
    eps: float | None = None,
    gamma: float = 0.5,
    gamma_prime: float = 0.5,
    constants_mode: str = "unit",
    custom_constants: tuple[float, float, float] | None = None,
    iteration_override: int | None = None,
    workers: int | None = None,
) -> ExperimentReport:
    """Rate experiment: median bound per sample size, with a slope fit.

    eps defaults to 2 ln(n) / n per grid point, keeping the epsilon terms
    at the 1/n scale so they do not mask the Rademacher term.  The target
    defaults to the empty interval.  A finite class of constant functions
    may be supplied instead as finite_vectors, a 2-d array with one column
    tiled to every grid size; its first row is used as the target labels.
    """
    from .entropy import rate_exponent_fit

    n_grid = [int(v) for v in n_grid]
    if len(n_grid) < 4:
        raise ValueError("rate runs need an n-grid of at least 4 sizes")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n-grid must be strictly increasing")
    if reps < 1:
        raise ValueError("need at least one replication per grid point")
    if finite_vectors is not None:
        finite_vectors = np.asarray(finite_vectors, dtype=float)
        if finite_vectors.ndim != 2 or finite_vectors.shape[1] != 1:
            raise ValueError(
                "finite rate classes need a 2-d array with one column "
                f"(constant functions), got shape {finite_vectors.shape}"
            )
    dist = dist if dist is not None else DistributionSpec.uniform(1)
    workers = workers if workers is not None else _env_workers()

    rows: list[ReplicationResult] = []
    per_n = []
    for n in n_grid:
        point_eps = eps if eps is not None else 2.0 * math.log(n) / n
        vectors = None if finite_vectors is None else np.tile(finite_vectors, (1, n))
        bound_kwargs = dict(
            eps=point_eps, gamma=gamma, gamma_prime=gamma_prime,
            constants_mode=constants_mode, custom_constants=custom_constants,
            iteration_override=iteration_override,
        )
        n_rows = _run_indexed(
            lambda rep: _replicate(
                master_seed, (n, rep), n, dist, target, vectors, "minimal", bound_kwargs
            ),
            range(reps), workers,
        )
        rows.extend(n_rows)
        per_n.append({
            "n": n,
            "eps": point_eps,
            "bound_median": float(np.median([r.bound for r in n_rows])),
            "risk_median": float(np.median([r.risk for r in n_rows])),
        })

    slope, r2 = rate_exponent_fit([(e["n"], e["bound_median"]) for e in per_n])
    config = {
        "command": "rates", "n_grid": n_grid, "reps": reps,
        "master_seed": master_seed, "dist": dist.kind,
        "target": list(target) if target else None,
        "finite_class": finite_vectors is not None,
        "eps": eps, "gamma": gamma, "gamma_prime": gamma_prime,
        "constants_mode": constants_mode,
        "custom_constants": list(custom_constants) if custom_constants else None,
        "iteration_override": iteration_override,
    }
    aggregates = {"slope": slope, "r_squared": r2, "per_n": per_n}
    return ExperimentReport("rates", config, rows, aggregates)


def mc_mean_sup_deviation(
    dist: DistributionSpec,
    target: tuple[float, float] | None,
    n: int,
    radii,
    draws: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo E sup |P_n - P| over the oracle ball, per radius.

    Fresh samples per draw; returns (means, standard errors) aligned with
    the radius grid.
    """
    radii = np.asarray(radii, dtype=float)
    acc = np.zeros(len(radii))
    acc_sq = np.zeros(len(radii))
    for t in range(draws):
        sample = draw_sample(dist, n, derive_seed(master_seed, t, TAG_MC))
        table = IntervalSymdiffTable(sample, target, dist)
        vals = np.array([table.sup_deviation(r) for r in radii])
        acc += vals
        acc_sq += vals ** 2
    means = acc / draws
    var = np.maximum(acc_sq / draws - means ** 2, 0.0) * draws / max(draws - 1, 1)
    return means, np.sqrt(var / draws)


def diagnose_ladder(
    *,
    dist: DistributionSpec,
    target: tuple[float, float] | None,
    n: int,
    eps: float,
    radii,
    master_seed: int,
    mc_draws: int = 200,
    gamma: float = 0.5,
    gamma_prime: float = 0.5,
    gamma_double_prime: float = 0.5,
) -> list[dict]:
    """Full phi-ladder rows (r, phi1..phi6) for one simulated instance.

    phi1/phi5 use the realized deviation sup over the oracle ball, phi2
    and phi6 its Monte Carlo expectation over fresh samples, phi3 the
    per-draw Rademacher sup over the oracle ball, phi4 the sign-averaged
    Rademacher norm over the empirical 2r ball.
    """
    radii = np.asarray(radii, dtype=float)
    sample = draw_sample(dist, n, derive_seed(master_seed, 0, TAG_SAMPLE))
    labels = interval_labels(target, sample)
    signs = RademacherDraw.from_seed(derive_seed(master_seed, 0, TAG_SIGNS), n)
    table = IntervalSymdiffTable(sample, target, dist)
    means, _ = mc_mean_sup_deviation(dist, target, n, radii, mc_draws, master_seed)
    reduced = reduce_by_labels(ConceptClass.intervals(), labels, sample)
    sign_norms = np.zeros(len(radii))
    for t in range(mc_draws):
        draw = RademacherDraw.from_seed(derive_seed(master_seed, t, TAG_SIGNS + 10), n)
        ev = LocalNormEvaluator(reduced, draw)
        sign_norms += np.array([ev.norm(2.0 * r) for r in radii])
    sign_norms /= mc_draws

    rows = []
    for pos, r in enumerate(radii):
        ladder = phi_ladder(
            float(r),
            LadderInputs(
                sup_dev=table.sup_deviation(float(r)),
                mean_sup_dev=float(means[pos]),
                rademacher_norm=table.sup_rademacher(signs.signs, float(r)),
                mean_rademacher_norm=float(sign_norms[pos]),
            ),
            eps,
            gamma=gamma,
            gamma_prime=gamma_prime,
            gamma_double_prime=gamma_double_prime,
        )
        row = {"r": float(r)}
        row.update(ladder.as_dict())
        rows.append(row)
    return rows
