"""Localized Rademacher norms and the iterated localization bound.

The bound works entirely from data: draw one sign vector, then iterate

    r_{k+1} = min(K1 * ||R_n||_{ball(2 r_k)} + K2 * sqrt(r_k eps) + K3 * eps, 1)

from r_0 = 1, where the ball is the empirical one {f: P_n f <= r} and
||R_n|| is the supremum of |n^{-1} sum_i eps_i f(X_i)| over it.  After N
iterations the last radius dominates the risk of every consistent
estimate, up to a tail probability of 2 N exp(-n eps / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import (
    ConceptClass,
    FAST_PATH_RUNS,
    FAST_PATH_SYMDIFF,
    Sample,
    SampledRestriction,
    reduce_by_labels,
)
from .concentration import constants_from_gammas

CONSTANTS_SAFE = "safe"
CONSTANTS_UNIT = "unit"
CONSTANTS_CUSTOM = "custom"

#: Most iterations run without an override; eps from a confidence level
#: pays the union bound for this many.  Eight iterations cover every eps
#: above ~1e-38, far below any usable value.
ITERATION_CAP = 8


def default_iterations(eps: float) -> int:
    """Iteration count floor(log2 log2 (1/eps)) + 1, and 1 for eps >= 1/2."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    level = math.log2(1.0 / eps)
    if level <= 1.0:
        return 1
    return int(math.floor(math.log2(level))) + 1


@dataclass(frozen=True)
class RademacherDraw:
    """A vector of signs in {-1, +1}^n with seed provenance."""

    signs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        signs = np.asarray(self.signs)
        if signs.ndim != 1 or not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be a flat vector of +1/-1 entries")
        signs = signs.astype(np.int64)
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    @classmethod
    def from_seed(cls, seed: int, n: int) -> "RademacherDraw":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return cls(signs=rng.integers(0, 2, size=n) * 2 - 1, seed=seed)

    @property
    def n(self) -> int:
        return len(self.signs)


@dataclass(frozen=True)
class LocalizationConfig:
    """Parameters of one localization run.

    eps > 0 gives the tail guarantee.  eps = 0 carries no guarantee and
    fixes no iteration count, so it is accepted only together with an
    iteration_override (for degenerate closed-form checks).  constants_mode
    picks the (K1, K2, K3) triple: "safe" derives them from the gammas,
    "unit" is the exploratory (1, 1, 1), "custom" takes a user triple.
    """

    eps: float
    gamma: float = 0.5
    gamma_prime: float = 0.5
    constants_mode: str = CONSTANTS_SAFE
    custom_constants: tuple[float, float, float] | None = None
    iteration_override: int | None = None

    def __post_init__(self):
        if self.eps < 0.0 or not math.isfinite(self.eps):
            raise ValueError("eps must be a finite nonnegative real")
        if self.eps == 0.0 and self.iteration_override is None:
            raise ValueError("eps = 0 needs an iteration override")
        if not (0.0 < self.gamma < 1.0) or not (0.0 < self.gamma_prime < 1.0):
            raise ValueError("gamma and gamma_prime must lie in (0, 1)")
        if self.constants_mode not in (CONSTANTS_SAFE, CONSTANTS_UNIT, CONSTANTS_CUSTOM):
            raise ValueError(f"unknown constants mode {self.constants_mode!r}")
        if self.constants_mode == CONSTANTS_CUSTOM:
            if self.custom_constants is None or len(self.custom_constants) != 3:
                raise ValueError("custom mode needs a (K1, K2, K3) triple")
            if any(k <= 0.0 for k in self.custom_constants):
                raise ValueError("custom constants must be positive")
        if self.iteration_override is not None and self.iteration_override < 1:
            raise ValueError("iteration override must be a positive integer")

    def resolve_constants(self) -> tuple[float, float, float]:
        if self.constants_mode == CONSTANTS_SAFE:
            return constants_from_gammas(self.gamma, self.gamma_prime)
        if self.constants_mode == CONSTANTS_UNIT:
            return 1.0, 1.0, 1.0
        return tuple(float(k) for k in self.custom_constants)

    def iterations(self) -> int:
        """The override if set, else 1 when eps >= 1 (outside the domain of
        default_iterations), else min(default_iterations(eps), ITERATION_CAP)."""
        if self.iteration_override is not None:
            return self.iteration_override
        if self.eps >= 1.0:
            return 1
        return min(default_iterations(self.eps), ITERATION_CAP)


@dataclass(frozen=True)
class BoundTrace:
    """The radii r_0, ..., r_N of one localization run.

    local_norms[k] is the Rademacher norm over the empirical ball of
    radius 2 * values[k] used in the k -> k+1 step.
    """

    values: tuple[float, ...]
    local_norms: tuple[float, ...]
    config: LocalizationConfig

    def __post_init__(self):
        if not self.values or self.values[0] != 1.0:
            raise ValueError("trace must start at r_0 = 1")
        if len(self.local_norms) != len(self.values) - 1:
            raise ValueError("one local norm per iteration step")

    @property
    def bound(self) -> float:
        return self.values[-1]

    @property
    def iterations(self) -> int:
        return len(self.values) - 1

    def rows(self) -> list[dict]:
        out = []
        for k, r in enumerate(self.values):
            norm = self.local_norms[k] if k < len(self.local_norms) else None
            out.append({"k": k, "r_bar": r, "local_norm": norm})
        return out


def _point_budget(radius: float, n: int) -> int:
    """Largest count c with c/n <= radius, exact under float comparison."""
    if radius < 0.0:
        raise ValueError("ball radius must be nonnegative")
    c = min(int(math.floor(radius * n)), n)
    while c + 1 <= n and (c + 1) / n <= radius:
        c += 1
    while c > 0 and c / n > radius:
        c -= 1
    return max(c, 0)


class LocalNormEvaluator:
    """Supremum of |n^{-1} sum_i eps_i v_i| over vectors with mean <= r.

    One instance is built per (restriction, draw) pair; repeated radius
    queries reuse the precomputed structure.  Two routes:

    - explicit vectors: one signed score per vector, linear scan;
    - interval restrictions (runs of tie groups, XOR-ed with a target run
      that may be empty): `_IntervalKernel`, O(m) to build over the m tie
      groups and O(m log m) per radius.

    All intermediate sums are integers, so every route returns bit-equal
    results to exhaustive enumeration over the materialized vectors.
    """

    def __init__(self, restriction: SampledRestriction, draw: RademacherDraw):
        if draw.n != restriction.n:
            raise ValueError(
                f"draw of length {draw.n} against a restriction on "
                f"{restriction.n} points"
            )
        self.n = restriction.n
        self._kernel = None
        if restriction.vectors is not None:
            vec = restriction.vectors
            self._means = vec.mean(axis=1)
            self._scores = np.abs(vec @ draw.signs.astype(float)) / self.n
        elif restriction.fast_path in (FAST_PATH_RUNS, FAST_PATH_SYMDIFF):
            self._kernel = _IntervalKernel(restriction, draw)
        else:
            raise ValueError(f"unknown fast path {restriction.fast_path!r}")

    def norm(self, radius: float) -> float:
        if radius < 0.0:
            raise ValueError("ball radius must be nonnegative")
        if self._kernel is None:
            mask = self._means <= radius
            if not mask.any():
                return 0.0  # empty ball: sup over the empty set is 0
            return float(self._scores[mask].max())
        best = self._kernel.max_abs_sum(_point_budget(radius, self.n))
        return float(best) / self.n


class _IntervalKernel:
    """Max |signed point sum| over run-XOR-target vectors within a point budget.

    Tie group g has c_g points and sign sum s_g.  Weighting it by f_g = -1
    inside the target run [p, q] and +1 outside, the run over groups
    [a, b) XOR the target has |T| + W[b] - W[a] points and signed sum
    S_T + A[b] - A[a], where W and A are the prefix sums of c_g f_g and
    s_g f_g, and a = b is the empty run.  The query maximizes
    |S_T + A[b] - A[a]| over a <= b with W[b] - W[a] <= budget - |T|.

    W rises strictly on L = [0, p], falls on I = [p, q+1] and rises on
    R = [q+1, m], so for each b the feasible a form an interval found by
    one searchsorted: a window ending at b inside L or inside R, a suffix
    of L (b >= p), or a prefix of I (b >= p).  The empty target is
    p = q+1 = m, where L is everything.  Length-constrained heaviest
    segments, after Lin, Jiang & Chao (JCSS 65, 2002).
    """

    def __init__(self, restriction: SampledRestriction, draw: RademacherDraw):
        cum = restriction.group_cum.astype(np.int64)
        m = len(cum) - 1
        sign_cum = np.concatenate(([0], np.cumsum(draw.signs[restriction.sort_order])))[cum]
        p, q = restriction.target_run if restriction.target_run is not None else (m, m - 1)
        weight = np.ones(m, dtype=np.int64)
        weight[p:q + 1] = -1
        self._w = np.concatenate(([0], np.cumsum(np.diff(cum) * weight)))
        self._a = np.concatenate(([0], np.cumsum(np.diff(sign_cum) * weight)))
        self._count_t = int(cum[q + 1] - cum[p])
        self._sum_t = int(sign_cum[q + 1] - sign_cum[p])
        self._p, self._r = p, q + 1
        a_left = self._a[:p + 1][::-1]
        self._left_min = np.minimum.accumulate(a_left)[::-1]
        self._left_max = np.maximum.accumulate(a_left)[::-1]
        self._inside_min = np.minimum.accumulate(self._a[p:q + 2])
        self._inside_max = np.maximum.accumulate(self._a[p:q + 2])
        self._neg_w_inside = -self._w[p:q + 2]

    def max_abs_sum(self, budget: int) -> int:
        slack = budget - self._count_t
        w, a, p, r = self._w, self._a, self._p, self._r
        found = []  # per case: (max A[b] - min A[a], max A[a] - A[b]) over feasible pairs
        a_tail = a[p:]
        # a in L, b >= p: W[a] >= W[b] - slack holds on a suffix of L
        lo = np.searchsorted(w[:p + 1], w[p:] - slack, side="left")
        ok = lo <= p
        if ok.any():
            found.append(_extremes(a_tail[ok], self._left_min[lo[ok]], self._left_max[lo[ok]]))
        # a in I, p <= a <= b: W[a] >= W[b] - slack holds on a prefix of I
        hi = np.searchsorted(self._neg_w_inside, slack - w[p:], side="right") - 1
        hi = np.minimum(hi, np.arange(len(hi)))
        ok = hi >= 0
        if ok.any():
            found.append(_extremes(a_tail[ok], self._inside_min[hi[ok]], self._inside_max[hi[ok]]))
        if slack >= 0:
            # a <= b both in L or both in R: a window ending at b
            for zone in (slice(0, p + 1), slice(r, None)):
                w_zone = w[zone]
                lo = np.searchsorted(w_zone, w_zone - slack, side="left")
                found.append(_window_extremes(a[zone], lo))
        if not found:
            return 0  # no vector fits the budget: sup over the empty set
        rise, fall = (max(col) for col in zip(*found))
        return max(self._sum_t + rise, fall - self._sum_t)


def _extremes(ends: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> tuple[int, int]:
    """(max of ends - lows, max of highs - ends) for nonempty aligned arrays."""
    return int((ends - lows).max()), int((highs - ends).max())


#: Windows answered per numpy call, which bounds the temporaries of a query.
_WINDOW_BLOCK = 1 << 13


def _window_extremes(values: np.ndarray, lo: np.ndarray) -> tuple[int, int]:
    """Max over b of values[b] - min(window) and of max(window) - values[b].

    The window of b is values[lo[b]:b + 1], with lo[b] <= b.  Sparse-table
    range queries (Bender & Farach-Colton, LATIN 2000) built one doubling
    level at a time: level k answers the windows of length in [2^k, 2^(k+1))
    and is then replaced by level k+1, so extra memory stays O(len(values)).
    """
    level = np.frexp(np.arange(1, len(lo) + 1) - lo)[1] - 1  # floor(log2(length)), exact
    rise = fall = 0  # each window holds its own end
    low = high = values
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            low = np.minimum(low[:-half], low[half:])
            high = np.maximum(high[:-half], high[half:])
        ends = np.flatnonzero(level == k)
        for start in range(0, len(ends), _WINDOW_BLOCK):
            b = ends[start:start + _WINDOW_BLOCK]
            left, right = lo[b], b - (1 << k) + 1
            r_k, f_k = _extremes(
                values[b], np.minimum(low[left], low[right]), np.maximum(high[left], high[right])
            )
            rise, fall = max(rise, r_k), max(fall, f_k)
    return rise, fall


def localize(
    restriction: SampledRestriction, draw: RademacherDraw, config: LocalizationConfig
) -> BoundTrace:
    """Run r_{k+1} = min(K1 ||R_n||_{ball(2 r_k)} + K2 sqrt(r_k eps) + K3 eps, 1) from r_0 = 1.

    One shared sign vector is used for all iterations; the output trace is
    nonincreasing because the step is nondecreasing in r.
    """
    steps = config.iterations()
    k1, k2, k3 = config.resolve_constants()
    ev = LocalNormEvaluator(restriction, draw)
    values = [1.0]
    norms = []
    r = 1.0
    for _ in range(steps):
        norm = ev.norm(2.0 * r)
        norms.append(norm)
        r = min(k1 * norm + k2 * math.sqrt(r * config.eps) + k3 * config.eps, 1.0)
        values.append(r)
    return BoundTrace(values=tuple(values), local_norms=tuple(norms), config=config)


def tail_certificate(iterations: int, n: int, eps: float) -> float:
    """2 N exp(-n eps / 2), a union bound over N steps on the failure probability."""
    return 2.0 * iterations * math.exp(-n * eps / 2.0)


@dataclass(frozen=True)
class RiskBoundResult:
    """Data-dependent risk bound with its trace and tail certificate."""

    bound: float
    trace: BoundTrace
    certificate: float
    eps: float
    iterations: int


def risk_bound(
    concept_class: ConceptClass,
    labels,
    sample: Sample,
    delta_conf: float | None = None,
    *,
    eps: float | None = None,
    seed: int = 0,
    gamma: float = 0.5,
    gamma_prime: float = 0.5,
    constants_mode: str = CONSTANTS_SAFE,
    custom_constants: tuple[float, float, float] | None = None,
    iteration_override: int | None = None,
) -> RiskBoundResult:
    """Risk bound for any estimate consistent with the labels.

    Exactly one of delta_conf and eps must be given.  From a confidence
    level delta the recursion parameter is eps = 2 ln(2 * cap / delta) / n
    with cap = 8, which makes the tail certificate 2 N exp(-n eps / 2) at
    most delta for every N <= cap.  The iteration count is
    `LocalizationConfig.iterations`.
    """
    if (delta_conf is None) == (eps is None):
        raise ValueError("provide exactly one of delta_conf and eps")
    n = sample.n
    if delta_conf is not None:
        if not (0.0 < delta_conf < 1.0):
            raise ValueError("delta_conf must lie in (0, 1)")
        eps = 2.0 * math.log(2.0 * ITERATION_CAP / delta_conf) / n
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    reduced = reduce_by_labels(concept_class, labels, sample)
    draw = RademacherDraw.from_seed(seed, n)
    config = LocalizationConfig(
        eps=eps,
        gamma=gamma,
        gamma_prime=gamma_prime,
        constants_mode=constants_mode,
        custom_constants=custom_constants,
        iteration_override=iteration_override,
    )
    trace = localize(reduced, draw, config)
    return RiskBoundResult(
        bound=trace.bound,
        trace=trace,
        certificate=tail_certificate(trace.iterations, n, eps),
        eps=eps,
        iterations=trace.iterations,
    )
