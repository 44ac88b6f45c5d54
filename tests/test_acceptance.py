"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 9 is the slow one; every other
criterion takes a few seconds at most.
"""

import math

import numpy as np
import pytest

import locrad as L
from locrad.cli import main as cli_main
from locrad.entropy import EntropyCurve, curve_fixed_point, rate_exponent_fit
from locrad.rademacher import LocalizationConfig, localize

from conftest import brute_local_norm

UNIFORM = L.DistributionSpec.uniform(1)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}")


def _random_restriction(rng, n_cap=12, vec_cap=40):
    n = int(rng.integers(2, n_cap + 1))
    kind = rng.integers(0, 3)
    pts = rng.random(n)
    if rng.random() < 0.25:
        pts = np.round(pts, 1)
    sample = L.Sample(points=pts)
    if kind == 0:
        if n > 8:
            n = 8
            sample = L.Sample(points=pts[:8])
        return L.restrict(L.ConceptClass.intervals(), sample), sample.n
    if kind == 1:
        if n > 8:
            n = 8
            sample = L.Sample(points=pts[:8])
        lo, hi = np.sort(rng.random(2))
        labels = L.interval_labels((lo, hi), sample)
        return L.reduce_by_labels(L.ConceptClass.intervals(), labels, sample), sample.n
    m = int(rng.integers(1, vec_cap + 1))
    vectors = rng.random((m, n))
    if rng.random() < 0.5:
        vectors = (vectors > 0.5).astype(float)
    return L.SampledRestriction(n=n, vectors=np.unique(vectors, axis=0)), n


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        restriction, n = _random_restriction(rng)
        draw = L.RademacherDraw.from_seed(int(rng.integers(2 ** 31)), n)
        radius = float(rng.random() * 1.3)
        got = L.LocalNormEvaluator(restriction, draw).norm(radius)
        want = brute_local_norm(restriction.materialize(), draw.signs, radius)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report(1, "local norm equals exhaustive enumeration", ok, f"max |diff| = {worst:.2e}")
    assert ok


def test_criterion_02_trace_monotonicity():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(1000):
        restriction, n = _random_restriction(rng)
        draw = L.RademacherDraw.from_seed(int(rng.integers(2 ** 31)), n)
        mode = ("safe", "unit", "custom")[int(rng.integers(0, 3))]
        custom = tuple(float(c) for c in rng.random(3) * 5 + 0.1) if mode == "custom" else None
        config = LocalizationConfig(
            eps=float(10 ** rng.uniform(-6, -0.35)),
            gamma=float(rng.uniform(0.05, 0.95)),
            gamma_prime=float(rng.uniform(0.05, 0.95)),
            constants_mode=mode,
            custom_constants=custom,
            iteration_override=int(rng.integers(1, 7)) if rng.random() < 0.3 else None,
        )
        trace = localize(restriction, draw, config)
        if trace.values[0] != 1.0:
            ok = False
        if any(b > a for a, b in zip(trace.values, trace.values[1:])):
            ok = False
        if any(not (0.0 < v <= 1.0) for v in trace.values):
            ok = False
        if not ok:
            break
    report(2, "1000 random traces nonincreasing in (0, 1]", ok)
    assert ok


def test_criterion_03_oracle_dominates_learners():
    rng = np.random.default_rng(303)
    ok = True
    detail = ""
    for instance in range(100):
        sample = L.draw_sample(UNIFORM, 500, L.derive_seed(303, instance, 0))
        width = float(rng.uniform(0.1, 0.6))
        lo = float(rng.uniform(0.0, 1.0 - width))
        target = (lo, lo + width)
        labels = L.interval_labels(target, sample)
        radii = L.oracle_sequence(target, sample, UNIFORM, 6)
        risk_min = L.true_risk(L.minimal_interval_learner(sample, labels), target, UNIFORM)
        risk_worst, _ = L.worst_consistent_risk(sample, labels, target, UNIFORM)
        if any(b > a for a, b in zip(radii, radii[1:])):
            ok = False
            detail = f"instance {instance}: not nonincreasing"
            break
        if any(risk_min > r or risk_worst > r for r in radii):
            ok = False
            detail = f"instance {instance}: oracle below a learner risk"
            break
    report(3, "oracle sequence bounds both learners (100 x n=500)", ok, detail)
    assert ok


def test_criterion_04_coverage_zero_violations():
    rep = L.run_coverage(
        target=(0.25, 0.75), n=2000, reps=500, master_seed=24,
        eps=0.02, gamma=0.5, gamma_prime=0.5, constants_mode="safe",
        learner="worst",
    )
    violations = rep.aggregates["violations"]
    certificate = rep.aggregates["certificate"]
    ok = violations == 0 and certificate <= 4e-8
    report(4, "coverage n=2000 eps=0.02 safe, 500 reps", ok,
           f"violations = {violations}, certificate = {certificate:.2e}")
    assert ok


def test_criterion_05_interval_rate_slope():
    rep = L.run_rates(
        n_grid=[2 ** k for k in range(10, 16)], reps=20, master_seed=55,
        constants_mode="unit",
    )
    slope = rep.aggregates["slope"]
    ok = -1.3 <= slope <= -0.7
    report(5, "empty-target rate slope in [-1.3, -0.7]", ok, f"slope = {slope:.4f}")
    assert ok


def test_criterion_06_vc_fixed_point_agreement():
    worst = 0.0
    for shatter in (7, 50, 1000):
        for n in (10 ** 2, 10 ** 4, 10 ** 6):
            for k in (1.0, 2.0, 12.0):
                want = L.vc_delta_hat(shatter, n, k)
                got = curve_fixed_point(
                    EntropyCurve.vc_from_count(shatter), n, variant="random", K=k
                ).delta
                worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-8
    report(6, "vc closed form vs generic solver", ok, f"max rel err = {worst:.2e}")
    assert ok


def test_criterion_07_bracketing_exponents():
    ok = True
    details = []
    for gamma in (0.5, 1.0, 1.5):
        pairs = [
            (n, curve_fixed_point(EntropyCurve.power(1.0, gamma), n, "bracketing").delta)
            for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
        ]
        slope, _ = rate_exponent_fit(pairs)
        target = -2.0 / (2.0 + gamma)
        details.append(f"g={gamma}: {slope:+.4f} vs {target:+.4f}")
        if abs(slope - target) > 0.05:
            ok = False
    report(7, "bracketing fixed-point exponents -2/(2+g)", ok, "; ".join(details))
    assert ok


def test_criterion_08_inclusion_exponents():
    ok = True
    details = []
    grids = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
    for gamma in (0.5, 1.0, 2.0):
        conv = L.inclusion_to_bracketing(EntropyCurve.power(1.0, gamma))
        pairs = [(n, curve_fixed_point(conv, n, "bracketing").delta) for n in grids]
        slope, _ = rate_exponent_fit(pairs)
        target = -1.0 / (1.0 + gamma)
        details.append(f"gI={gamma}: {slope:+.4f} vs {target:+.4f}")
        if abs(slope - target) > 0.05:
            ok = False
    # alpha-smooth boundaries in d=2 with alpha=1, and convex sets in d=3,
    # both map to inclusion exponent 1 and rate -1/2
    for gamma_i, target in (
        (L.smooth_boundary_gamma(2, 1.0), -0.5),
        (L.convex_class_gamma(3), -2.0 / (3 + 1)),
    ):
        conv = L.inclusion_to_bracketing(EntropyCurve.power(1.0, gamma_i))
        pairs = [(n, curve_fixed_point(conv, n, "bracketing").delta) for n in grids]
        slope, _ = rate_exponent_fit(pairs)
        details.append(f"geo gI={gamma_i}: {slope:+.4f} vs {target:+.4f}")
        if abs(slope - target) > 0.05:
            ok = False
    report(8, "inclusion-scale exponents -1/(1+g)", ok, "; ".join(details))
    assert ok


def test_criterion_09_phi_ladder_ordering():
    from locrad.concentration import LadderInputs, phi_ladder

    target = (0.3, 0.7)
    n, eps = 1000, 0.02
    radii = np.linspace(0.1, 1.0, 10)
    means, _ = L.mc_mean_sup_deviation(UNIFORM, target, n, radii, draws=200,
                                       master_seed=909)
    violations = 0
    for instance in range(50):
        sample = L.draw_sample(UNIFORM, n, L.derive_seed(910, instance, 0))
        signs = L.RademacherDraw.from_seed(L.derive_seed(910, instance, 1), n)
        table = L.IntervalSymdiffTable(sample, target, UNIFORM)
        for pos, radius in enumerate(radii):
            ladder = phi_ladder(
                float(radius),
                LadderInputs(
                    sup_dev=table.sup_deviation(float(radius)),
                    mean_sup_dev=float(means[pos]),
                    rademacher_norm=table.sup_rademacher(signs.signs, float(radius)),
                ),
                eps,
            )
            if ladder.phi1 > ladder.phi2 or ladder.phi2 > ladder.phi3:
                violations += 1
    ok = violations == 0
    report(9, "phi ladder ordering, 50 instances x 10 radii", ok,
           f"violations = {violations}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cov_args = ["coverage", "--n", "2000", "--reps", "500", "--eps", "0.02",
                "--seed", "24", "--target", "0.25,0.75", "--learner", "worst"]
    rate_args = ["rates", "--n-grid", ",".join(str(2 ** k) for k in range(10, 16)),
                 "--reps", "20", "--seed", "55", "--constants", "unit"]
    cov1, cov2 = tmp_path / "cov1.csv", tmp_path / "cov2.csv"
    rate1, rate2 = tmp_path / "rate1.csv", tmp_path / "rate2.csv"
    assert cli_main(cov_args + ["--out", str(cov1)]) == 0
    assert cli_main(cov_args + ["--out", str(cov2)]) == 0
    assert cli_main(rate_args + ["--out", str(rate1)]) == 0
    assert cli_main(rate_args + ["--out", str(rate2)]) == 0
    cov_same = cov1.read_bytes() == cov2.read_bytes()
    rate_same = rate1.read_bytes() == rate2.read_bytes()
    ok = cov_same and rate_same
    report(10, "criteria 4 and 5 reruns byte-identical", ok,
           f"coverage {cov_same}, rates {rate_same}")
    assert ok
