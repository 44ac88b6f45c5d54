import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locrad.classes import (
    ConceptClass,
    InconsistentLabelsError,
    Sample,
    SampledRestriction,
    reduce_by_labels,
    restrict,
)
from locrad import rademacher
from locrad.rademacher import (
    ITERATION_CAP,
    BoundTrace,
    LocalizationConfig,
    LocalNormEvaluator,
    RademacherDraw,
    constants_from_gammas,
    default_iterations,
    localize,
    _IntervalKernel,
    risk_bound,
)

from conftest import brute_local_norm, brute_symdiff_table


ZERO_ONLY = SampledRestriction(n=4, vectors=np.zeros((1, 4)))


def draw(seed, n):
    return RademacherDraw.from_seed(seed, n)


# ---------------------------------------------------------------- constants

def test_constants_half_half():
    k1, k2, k3 = constants_from_gammas(0.5, 0.5)
    assert k1 == pytest.approx(6.0, rel=1e-12)
    assert k2 == pytest.approx(6.0 * math.sqrt(5.4) + 2.0, rel=1e-12)
    assert k3 == pytest.approx(6.0 * 44.95 + 33.75, rel=1e-12)
    assert k3 == pytest.approx(303.45, rel=1e-12)


def test_constants_asymmetric():
    k1, _, _ = constants_from_gammas(0.9, 0.1)
    assert k1 == pytest.approx(2.0 * 1.9 / 0.9, rel=1e-12)


def test_constants_diverge_as_gamma_vanishes():
    k3s = [constants_from_gammas(g, 0.5)[2] for g in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b > a for a, b in zip(k3s, k3s[1:]))
    assert k3s[-1] > 1e5


def test_constants_domain():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            constants_from_gammas(bad, 0.5)
        with pytest.raises(ValueError):
            constants_from_gammas(0.5, bad)


# ------------------------------------------------------------- iterations

@pytest.mark.parametrize("eps,expected", [
    (0.25, 2),
    (0.001, 4),
    (2.0 ** -16, 5),
    (0.6, 1),
    (0.5, 1),
])
def test_default_iterations(eps, expected):
    assert default_iterations(eps) == expected


def test_default_iterations_rejects_bad_eps():
    for eps in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            default_iterations(eps)


@given(st.floats(min_value=1e-30, max_value=0.999))
def test_default_iterations_positive(eps):
    assert default_iterations(eps) >= 1


def test_config_iterations_is_the_whole_rule():
    # override first, then one step for eps >= 1, then the capped default;
    # risk_bound runs exactly the count the config reports
    s = Sample(points=np.linspace(0.05, 0.95, 10))
    cls = ConceptClass.finite(np.zeros((1, 10)))
    for eps in (1.5, 1.0):
        assert LocalizationConfig(eps=eps).iterations() == 1
        assert risk_bound(cls, np.zeros(10), s, eps=eps).iterations == 1
    assert LocalizationConfig(eps=1.5, iteration_override=3).iterations() == 3
    assert LocalizationConfig(eps=1e-300).iterations() == ITERATION_CAP
    assert default_iterations(1e-300) > ITERATION_CAP
    assert LocalizationConfig(eps=1e-3).iterations() == default_iterations(1e-3)


# ------------------------------------------------------------- local norm

def test_norm_zero_restriction():
    assert LocalNormEvaluator(ZERO_ONLY, draw(0, 4)).norm(0.7) == 0.0


def test_norm_full_ball_equals_unconstrained(rng):
    vectors = np.unique(rng.random((15, 6)), axis=0)
    r = SampledRestriction(n=6, vectors=vectors)
    d = draw(5, 6)
    ev = LocalNormEvaluator(r, d)
    full = ev.norm(1.0)
    assert ev.norm(2.0) == full
    assert full == pytest.approx(brute_local_norm(vectors, d.signs, 1.0), abs=0)


def test_norm_interval_window_example():
    # four sorted points, alternating signs, budget two points: any single
    # point gives |sum| = 1, any pair cancels, so the norm is 1/4
    s = Sample(points=[0.1, 0.3, 0.5, 0.7])
    r = restrict(ConceptClass.intervals(), s)
    d = RademacherDraw(signs=np.array([1, -1, 1, -1]))
    assert LocalNormEvaluator(r, d).norm(0.5) == 0.25


def test_norm_empty_ball_is_zero(rng):
    vectors = np.clip(rng.random((5, 4)) + 0.5, 0.0, 1.0)
    r = SampledRestriction(n=4, vectors=np.unique(vectors, axis=0))
    assert LocalNormEvaluator(r, draw(1, 4)).norm(0.0) == 0.0


def test_norm_errors():
    with pytest.raises(ValueError):
        LocalNormEvaluator(ZERO_ONLY, draw(0, 3)).norm(0.5)
    with pytest.raises(ValueError):
        LocalNormEvaluator(ZERO_ONLY, draw(0, 4)).norm(-0.1)


def test_norm_monotone_in_radius(rng):
    pts = rng.random(30)
    s = Sample(points=pts)
    red = reduce_by_labels(
        ConceptClass.intervals(),
        ((pts >= 0.4) & (pts <= 0.7)).astype(float),
        s,
    )
    d = draw(11, 30)
    ev = LocalNormEvaluator(red, d)
    values = [ev.norm(r) for r in np.linspace(0.0, 1.0, 21)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v <= values[-1] for v in values)


@pytest.mark.parametrize("kind", ["runs", "symdiff", "vectors", "ties"])
def test_norm_matches_brute_force_per_path(kind, rng):
    for _ in range(40):
        n = int(rng.integers(2, 12))
        pts = rng.random(n)
        if kind == "ties":
            pts = np.round(pts, 1)
        s = Sample(points=pts)
        if kind == "vectors":
            red = SampledRestriction(
                n=n, vectors=np.unique(rng.random((int(rng.integers(1, 30)), n)), axis=0)
            )
        elif kind == "symdiff":
            lo, hi = np.sort(rng.random(2))
            labels = ((pts >= lo) & (pts <= hi)).astype(float)
            red = reduce_by_labels(ConceptClass.intervals(), labels, s)
        else:
            red = restrict(ConceptClass.intervals(), s)
        d = draw(int(rng.integers(0, 2 ** 31)), n)
        radius = float(rng.random() * 1.2)
        got = LocalNormEvaluator(red, d).norm(radius)
        want = brute_local_norm(red.materialize(), d.signs, radius)
        assert got == pytest.approx(want, abs=1e-12)


def _brute_window(restriction, signs, budget):
    """Max |signed sum| over runs of tie groups holding at most budget points."""
    cum = restriction.group_cum
    prefix = np.concatenate(([0], np.cumsum(signs[restriction.sort_order])))[cum]
    a, b = np.triu_indices(len(cum))  # a = b is the empty run
    fits = cum[b] - cum[a] <= budget
    return int(np.abs(prefix[b] - prefix[a])[fits].max())


def _interval_instance(rng, n, target_kind):
    pts = rng.random(n)
    if rng.random() < 0.5:
        pts = np.round(pts, int(rng.integers(0, 3)))  # ties, down to one group
    lo, hi = np.sort(rng.choice(pts, 2))
    target = {
        "empty": None,
        "partial": (lo, hi),
        "full": (-1.0, 2.0),
        "left-edge": (-1.0, hi),
        "right-edge": (lo, 2.0),
    }[target_kind]
    labels = np.zeros(n) if target is None else ((pts >= target[0]) & (pts <= target[1])) * 1.0
    s = Sample(points=pts)
    reduced = reduce_by_labels(ConceptClass.intervals(), labels, s)
    return reduced, draw(int(rng.integers(0, 2 ** 31)), n)


@pytest.mark.parametrize("target_kind", ["empty", "partial", "full", "left-edge", "right-edge"])
def test_interval_kernel_matches_oracles_every_budget(target_kind, rng):
    for _ in range(12):
        n = int(rng.integers(1, 201))
        reduced, d = _interval_instance(rng, n, target_kind)
        kernel = _IntervalKernel(reduced, d)
        table = brute_symdiff_table(reduced, d.signs)
        for budget in range(n + 1):
            got = kernel.max_abs_sum(budget)
            assert got == max(int(table[budget]), 0), (n, budget)
            if target_kind == "empty":
                assert got == _brute_window(reduced, d.signs, budget)


@pytest.mark.parametrize("target", [None, (0.3, 0.65)])
def test_interval_kernel_matches_oracle_large(target, rng, monkeypatch):
    monkeypatch.setattr(rademacher, "_WINDOW_BLOCK", 64)  # several blocks per level
    n = 3000
    pts = np.round(rng.random(n), 4)
    s = Sample(points=pts)
    labels = np.zeros(n) if target is None else ((pts >= target[0]) & (pts <= target[1])) * 1.0
    reduced = reduce_by_labels(ConceptClass.intervals(), labels, s)
    d = draw(77, n)
    kernel = _IntervalKernel(reduced, d)
    table = brute_symdiff_table(reduced, d.signs)
    count_t = int(labels.sum())
    grid = set(range(0, n + 1, 23)) | set(range(max(count_t - 40, 0), count_t + 41)) | {n}
    for budget in sorted(grid):
        assert kernel.max_abs_sum(budget) == max(int(table[budget]), 0), budget


# ---------------------------------------------------------------- localize

def test_localize_hand_recursion_safe():
    cfg = LocalizationConfig(eps=1e-4, iteration_override=2)
    trace = localize(ZERO_ONLY, draw(0, 4), cfg)
    _, k2, k3 = constants_from_gammas(0.5, 0.5)
    r1 = k2 * math.sqrt(1e-4) + k3 * 1e-4
    r2 = k2 * math.sqrt(r1 * 1e-4) + k3 * 1e-4
    assert trace.values == (1.0, r1, r2)
    assert r1 == pytest.approx(0.1897724, abs=5e-8)
    assert r2 == pytest.approx(0.0997962, abs=5e-8)


def test_localize_clamps_at_one(rng):
    pts = rng.random(12)
    s = Sample(points=pts)
    red = restrict(ConceptClass.intervals(), s)
    cfg = LocalizationConfig(eps=0.5)  # K3 * eps alone exceeds 1
    trace = localize(red, draw(2, 12), cfg)
    assert all(v == 1.0 for v in trace.values)


def test_config_eps_zero_needs_override():
    with pytest.raises(ValueError):
        LocalizationConfig(eps=0.0)


def test_localize_unit_eps_zero():
    cfg = LocalizationConfig(eps=0.0, constants_mode="unit", iteration_override=3)
    trace = localize(ZERO_ONLY, draw(0, 4), cfg)
    assert trace.values == (1.0, 0.0, 0.0, 0.0)


def test_localize_records_norms(rng):
    pts = rng.random(20)
    s = Sample(points=pts)
    red = restrict(ConceptClass.intervals(), s)
    d = draw(9, 20)
    cfg = LocalizationConfig(eps=0.01, constants_mode="unit", iteration_override=4)
    trace = localize(red, d, cfg)
    assert len(trace.local_norms) == 4
    for k, nu in enumerate(trace.local_norms):
        assert nu == LocalNormEvaluator(red, d).norm(2 * trace.values[k])
        # the unit-constant step: norm + sqrt(r eps) + eps, clamped at 1
        r = trace.values[k]
        assert trace.values[k + 1] == min(nu + math.sqrt(r * 0.01) + 0.01, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 20),
       st.floats(1e-6, 0.45), st.sampled_from(["safe", "unit"]))
def test_localize_trace_monotone_property(n, seed, eps, mode):
    rng_local = np.random.default_rng(seed)
    pts = rng_local.random(n)
    s = Sample(points=pts)
    red = restrict(ConceptClass.intervals(), s)
    cfg = LocalizationConfig(eps=eps, constants_mode=mode)
    trace = localize(red, draw(seed, n), cfg)
    assert trace.values[0] == 1.0
    assert all(b <= a for a, b in zip(trace.values, trace.values[1:]))
    assert all(0.0 < v <= 1.0 for v in trace.values)


# --------------------------------------------------------------- risk_bound

def test_risk_bound_singleton_safe():
    rng_local = np.random.default_rng(0)
    v = rng_local.random(100)
    s = Sample(points=np.linspace(0.005, 0.995, 100))
    cls = ConceptClass.finite(v.reshape(1, -1))
    res = risk_bound(cls, v, s, delta_conf=0.05, seed=1)
    assert res.eps == pytest.approx(2.0 * math.log(320.0) / 100.0, rel=1e-12)
    assert res.bound == 1.0  # safe constants clamp at this eps
    assert res.certificate <= 0.05
    assert res.iterations == min(default_iterations(res.eps), 8)


def test_risk_bound_singleton_unit():
    rng_local = np.random.default_rng(0)
    v = rng_local.random(100)
    s = Sample(points=np.linspace(0.005, 0.995, 100))
    cls = ConceptClass.finite(v.reshape(1, -1))
    res = risk_bound(cls, v, s, delta_conf=0.05, seed=1, constants_mode="unit")
    eps = 2.0 * math.log(320.0) / 100.0
    r1 = math.sqrt(eps) + eps
    assert res.trace.values[1] == pytest.approx(r1, rel=1e-12)
    assert r1 == pytest.approx(0.4550227, abs=5e-8)
    # two iterations at this eps: the bound is one more step down
    r2 = math.sqrt(r1 * eps) + eps
    assert res.bound == pytest.approx(r2, rel=1e-12)


def test_risk_bound_rejects_inconsistent_labels():
    s = Sample(points=[0.1, 0.2, 0.3])
    cls = ConceptClass.finite(np.zeros((1, 3)))
    with pytest.raises(InconsistentLabelsError):
        risk_bound(cls, np.array([0.0, 1.0, 0.0]), s, delta_conf=0.1)


def test_risk_bound_needs_exactly_one_level():
    s = Sample(points=[0.1, 0.2, 0.3])
    cls = ConceptClass.finite(np.zeros((1, 3)))
    zeros = np.zeros(3)
    with pytest.raises(ValueError):
        risk_bound(cls, zeros, s)
    with pytest.raises(ValueError):
        risk_bound(cls, zeros, s, delta_conf=0.1, eps=0.05)


def test_risk_bound_certificate_formula():
    s = Sample(points=np.linspace(0.01, 0.99, 50))
    cls = ConceptClass.finite(np.zeros((1, 50)))
    res = risk_bound(cls, np.zeros(50), s, eps=0.02, seed=4)
    n_iter = res.iterations
    assert res.certificate == pytest.approx(2 * n_iter * math.exp(-50 * 0.02 / 2), rel=1e-12)


def test_bound_trace_validation():
    cfg = LocalizationConfig(eps=0.1)
    with pytest.raises(ValueError):
        BoundTrace(values=(0.5, 0.2), local_norms=(0.1,), config=cfg)
    with pytest.raises(ValueError):
        BoundTrace(values=(1.0, 0.2), local_norms=(), config=cfg)


def test_draw_validation():
    with pytest.raises(ValueError):
        RademacherDraw(signs=np.array([1, 0, -1]))
    d = RademacherDraw.from_seed(3, 5)
    assert d.n == 5 and set(np.unique(d.signs)) <= {-1, 1}
    assert np.array_equal(d.signs, RademacherDraw.from_seed(3, 5).signs)


def test_config_validation():
    with pytest.raises(ValueError):
        LocalizationConfig(eps=-1.0)
    with pytest.raises(ValueError):
        LocalizationConfig(eps=0.1, gamma=1.0)
    with pytest.raises(ValueError):
        LocalizationConfig(eps=0.1, constants_mode="custom")
    with pytest.raises(ValueError):
        LocalizationConfig(eps=0.1, constants_mode="custom",
                           custom_constants=(1.0, -2.0, 3.0))
    cfg = LocalizationConfig(eps=0.1, constants_mode="custom",
                             custom_constants=(1.0, 2.0, 3.0))
    assert cfg.resolve_constants() == (1.0, 2.0, 3.0)


def test_trace_rows_serialization():
    cfg = LocalizationConfig(eps=0.01, constants_mode="unit", iteration_override=2)
    trace = localize(ZERO_ONLY, draw(0, 4), cfg)
    rows = trace.rows()
    assert [row["k"] for row in rows] == [0, 1, 2]
    assert rows[0]["r_bar"] == 1.0
    assert rows[-1]["local_norm"] is None
    assert rows[0]["local_norm"] == trace.local_norms[0]
    assert trace.bound == trace.values[-1]
    assert trace.iterations == 2
