import math
import os

import numpy as np
import pytest

import locrad as L
from locrad.classes import InconsistentLabelsError

from conftest import brute_interval_deviation, brute_symdiff_table

UNIFORM = L.DistributionSpec.uniform(1)


# ---------------------------------------------------------- distributions

def test_draw_sample_deterministic():
    a = L.draw_sample(UNIFORM, 5, 123)
    b = L.draw_sample(UNIFORM, 5, 123)
    c = L.draw_sample(UNIFORM, 5, 124)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.seed == 123


def test_draw_sample_rejects_empty():
    with pytest.raises(ValueError):
        L.draw_sample(UNIFORM, 0, 1)


def test_piecewise_single_piece_is_uniform():
    dist = L.DistributionSpec.piecewise([0.0, 1.0], [1.0])
    x = np.sort(L.draw_sample(dist, 10 ** 4, 7).points[:, 0])
    n = len(x)
    ks = max(
        float(np.max(np.arange(1, n + 1) / n - x)),
        float(np.max(x - np.arange(0, n) / n)),
    )
    assert ks < 1.63 / math.sqrt(n)  # 1% critical value


def test_piecewise_cdf_and_measure():
    dist = L.DistributionSpec.piecewise([0.0, 0.5, 1.0], [2.0, 0.0])
    assert dist.cdf(0.25) == pytest.approx(0.5)
    assert dist.cdf(0.75) == pytest.approx(1.0)
    assert dist.measure(0.25, 0.5) == pytest.approx(0.5)
    assert dist.density_bound == math.inf
    balanced = L.DistributionSpec.piecewise([0.0, 0.5, 1.0], [1.5, 0.5])
    assert balanced.density_bound == pytest.approx(2.0)
    assert balanced.cdf(1.0) == 1.0


def test_piecewise_validation():
    with pytest.raises(ValueError):
        L.DistributionSpec.piecewise([0.1, 1.0], [1.0])
    with pytest.raises(ValueError):
        L.DistributionSpec.piecewise([0.0, 0.5, 1.0], [0.0, 0.0])


def test_derive_seed_stable():
    assert L.derive_seed(5, 1, 0) == L.derive_seed(5, 1, 0)
    assert L.derive_seed(5, 1, 0) != L.derive_seed(5, 2, 0)
    assert L.derive_seed(5, 1, 0) != L.derive_seed(5, 1, 1)


# --------------------------------------------------------------- learners

def test_minimal_learner_examples():
    s = L.Sample(points=[0.3, 0.6, 0.9])
    assert L.minimal_interval_learner(s, [1.0, 1.0, 0.0]) == (0.3, 0.6)
    assert L.minimal_interval_learner(s, [0.0, 0.0, 0.0]) is None
    with pytest.raises(InconsistentLabelsError):
        L.minimal_interval_learner(s, [1.0, 0.0, 1.0])


def test_minimal_learner_is_consistent(rng):
    for _ in range(25):
        s = L.draw_sample(UNIFORM, 40, int(rng.integers(2 ** 31)))
        lo, hi = np.sort(rng.random(2))
        labels = L.interval_labels((lo, hi), s)
        est = L.minimal_interval_learner(s, labels)
        assert np.array_equal(L.interval_labels(est, s), labels)


# -------------------------------------------------------------- true risk

def test_true_risk_examples():
    assert L.true_risk((0.3, 0.7), (0.2, 0.8), UNIFORM) == pytest.approx(0.2, rel=1e-12)
    assert L.true_risk((0.2, 0.8), (0.2, 0.8), UNIFORM) == 0.0
    assert L.true_risk(None, (0.2, 0.8), UNIFORM) == pytest.approx(0.6, rel=1e-12)
    dist = L.DistributionSpec.piecewise([0.0, 0.5, 1.0], [2.0, 0.0])
    assert L.true_risk((0.0, 0.25), (0.0, 0.5), dist) == pytest.approx(0.5, rel=1e-12)


def test_true_risk_disjoint():
    assert L.true_risk((0.0, 0.2), (0.8, 1.0), UNIFORM) == pytest.approx(0.4, rel=1e-12)


def test_worst_consistent_dominates_minimal(rng):
    for _ in range(25):
        s = L.draw_sample(UNIFORM, 60, int(rng.integers(2 ** 31)))
        lo, hi = np.sort(rng.random(2))
        labels = L.interval_labels((lo, hi), s)
        risk_min = L.true_risk(L.minimal_interval_learner(s, labels), (lo, hi), UNIFORM)
        risk_worst, witness = L.worst_consistent_risk(s, labels, (lo, hi), UNIFORM)
        assert risk_worst >= risk_min - 1e-15
        if witness is not None:
            # the witness itself must be consistent (up to closure endpoints)
            w_lab = L.interval_labels(witness, s)
            boundary = np.isin(s.points[:, 0], witness)
            assert np.array_equal(w_lab[~boundary], labels[~boundary])


def test_worst_consistent_brute_force(rng):
    # dense-grid scan lower-bounds the closure supremum and approaches it;
    # for each left end a, every right end b >= a is checked at once
    for trial in range(8):
        s = L.draw_sample(UNIFORM, 25, 300 + trial)
        lo, hi = np.sort(rng.random(2))
        labels = L.interval_labels((lo, hi), s)
        got, _ = L.worst_consistent_risk(s, labels, (lo, hi), UNIFORM)
        grid = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 1501), s.points[:, 0], [lo, hi]
        ]))
        x = s.points[:, 0]
        positive = labels == 1.0
        best = 0.0 if labels.any() else hi - lo  # the empty estimate
        for a_idx, a in enumerate(grid):
            b = grid[a_idx:]
            inside = (x >= a) & (x <= b[:, None])
            consistent = np.all(inside == positive, axis=1)
            if consistent.any():
                b = b[consistent]
                # uniform mass of [a, b] symmetric-difference [lo, hi]
                overlap = np.maximum(np.minimum(b, hi) - max(a, lo), 0.0)
                best = max(best, float(((b - a) + (hi - lo) - 2.0 * overlap).max()))
        assert got >= best - 1e-12
        assert got <= best + 2e-3  # grid resolution slack


def test_worst_consistent_rejects_tied_conflict():
    # a negative point sharing its value with a hull positive cannot be
    # separated by any interval
    s = L.Sample(points=[0.3, 0.3, 0.6])
    with pytest.raises(InconsistentLabelsError):
        L.worst_consistent_risk(s, np.array([0.0, 1.0, 1.0]), (0.3, 0.6), UNIFORM)
    with pytest.raises(InconsistentLabelsError):
        L.minimal_interval_learner(s, np.array([0.0, 1.0, 1.0]))


def test_worst_consistent_no_positives():
    s = L.Sample(points=[0.4, 0.6])
    labels = np.zeros(2)
    risk, witness = L.worst_consistent_risk(s, labels, (0.45, 0.55), UNIFORM)
    # either outer gap plus the whole missed target: 0.4 + 0.1
    assert risk == pytest.approx(0.5, rel=1e-12)
    assert witness in ((0.0, 0.4), (0.6, 1.0))


# ------------------------------------------------------------ cell table

def test_table_matches_linear_scan(rng):
    for _ in range(20):
        n = int(rng.integers(5, 150))
        s = L.draw_sample(UNIFORM, n, int(rng.integers(2 ** 31)))
        table = L.IntervalSymdiffTable(s, None, UNIFORM)
        assert table.sup_deviation(1.0) == pytest.approx(
            L.interval_deviation_scan(s, UNIFORM), abs=1e-14
        )


def test_table_matches_brute_force_cells(rng):
    for _ in range(12):
        n = int(rng.integers(3, 20))
        pts = rng.random(n)
        if rng.random() < 0.3:
            pts = np.round(pts, 1)  # ties
        s = L.Sample(points=pts)
        target = None if rng.random() < 0.3 else tuple(np.sort(rng.random(2)))
        table = L.IntervalSymdiffTable(s, target, UNIFORM)
        for radius in (0.05, 0.3, 0.7, 1.0):
            want = brute_interval_deviation(pts, target, radius, lambda v: min(max(v, 0.0), 1.0))
            assert table.sup_deviation(radius) == pytest.approx(want, abs=1e-12)


def test_table_rademacher_matches_cells(rng):
    # at full radius the table's Rademacher sup equals the norm evaluator
    # on the reduced restriction (both are exhaustive over dichotomies)
    from locrad.rademacher import LocalNormEvaluator

    for _ in range(10):
        n = int(rng.integers(4, 40))
        s = L.draw_sample(UNIFORM, n, int(rng.integers(2 ** 31)))
        lo, hi = np.sort(rng.random(2))
        labels = L.interval_labels((lo, hi), s)
        table = L.IntervalSymdiffTable(s, (lo, hi), UNIFORM)
        draw = L.RademacherDraw.from_seed(int(rng.integers(2 ** 31)), n)
        red = L.reduce_by_labels(L.ConceptClass.intervals(), labels, s)
        ev = LocalNormEvaluator(red, draw)
        assert table.sup_rademacher(draw.signs, 1.0) == pytest.approx(ev.norm(1.0), abs=1e-14)


def test_table_cap():
    s = L.draw_sample(UNIFORM, 3000, 0)
    with pytest.raises(ValueError):
        L.IntervalSymdiffTable(s, None, UNIFORM)


# ----------------------------------------------------------------- oracle

def test_oracle_monotone_and_dominates(rng):
    for trial in range(10):
        s = L.draw_sample(UNIFORM, 200, 40 + trial)
        target = tuple(np.sort(rng.random(2)))
        labels = L.interval_labels(target, s)
        radii = L.oracle_sequence(target, s, UNIFORM, 6)
        assert radii[0] == 1.0
        assert all(b <= a for a, b in zip(radii, radii[1:]))
        risk_min = L.true_risk(L.minimal_interval_learner(s, labels), target, UNIFORM)
        risk_worst, _ = L.worst_consistent_risk(s, labels, target, UNIFORM)
        assert all(risk_min <= r for r in radii)
        assert all(risk_worst <= r for r in radii)


def test_oracle_first_step_decreases_with_n():
    # median first oracle radius over 50 seeds shrinks as n grows
    medians = []
    for n in (100, 1000, 10000):
        vals = [
            L.interval_deviation_scan(L.draw_sample(UNIFORM, n, L.derive_seed(3, n, k)), UNIFORM)
            for k in range(50)
        ]
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]


# ------------------------------------------------------------ experiments

def test_run_coverage_single_rep():
    report = L.run_coverage(target=(0.25, 0.75), n=100, reps=1, master_seed=3,
                            delta_conf=0.05)
    assert len(report.rows) == 1
    assert report.aggregates["violation_frequency"] in (0.0, 1.0)
    assert report.rows[0].n == 100
    assert report.config["command"] == "coverage"


def test_run_coverage_unit_mode_well_formed():
    report = L.run_coverage(target=(0.3, 0.7), n=300, reps=10, master_seed=8,
                            eps=0.02, constants_mode="unit")
    assert len(report.rows) == 10
    freq = report.aggregates["violation_frequency"]
    assert freq == sum(r.violated for r in report.rows) / 10
    for row in report.rows:
        assert row.violated == (row.risk >= row.bound)
        assert 0.0 <= row.risk <= 1.0


def test_run_coverage_deterministic():
    kw = dict(target=(0.25, 0.75), n=150, reps=5, master_seed=77, eps=0.05)
    a = L.run_coverage(**kw)
    b = L.run_coverage(**kw)
    assert a.csv_rows() == b.csv_rows()
    c = L.run_coverage(**{**kw, "workers": 4})
    assert a.csv_rows() == c.csv_rows()


def test_run_coverage_targeted_large_n_matches_oracle():
    # a targeted run above the size the quadratic scan used to allow: every
    # local norm of the trace equals the quadratic oracle's
    n, eps, target = 5000, 0.001, (0.2, 0.8)
    report = L.run_coverage(target=target, n=n, reps=1, master_seed=0, eps=eps,
                            constants_mode="unit", learner="worst")
    row = report.rows[0]
    sample = L.draw_sample(UNIFORM, n, row.sample_seed)
    labels = L.interval_labels(target, sample)
    result = L.risk_bound(L.ConceptClass.intervals(), labels, sample, eps=eps,
                          seed=row.signs_seed, constants_mode="unit")
    assert result.trace.values == row.trace
    reduced = L.reduce_by_labels(L.ConceptClass.intervals(), labels, sample)
    table = brute_symdiff_table(reduced, L.RademacherDraw.from_seed(row.signs_seed, n).signs)
    budgets = set()
    for r, norm in zip(result.trace.values, result.trace.local_norms):
        budget = max(c for c in range(n + 1) if c / n <= 2.0 * r)
        budgets.add(budget)
        assert norm == max(int(table[budget]), 0) / n
    assert len(budgets) >= 3  # the trace reaches small balls, not only the full one


def test_run_rates_validation():
    with pytest.raises(ValueError):
        L.run_rates(n_grid=[512], reps=2, master_seed=0)
    with pytest.raises(ValueError):
        L.run_rates(n_grid=[512, 256, 1024, 2048], reps=2, master_seed=0)


def test_run_rates_degenerate_class_matches_hand_recursion():
    # zero-only class: the bound is a deterministic recursion in eps alone
    grid = [256, 512, 1024, 2048]
    report = L.run_rates(n_grid=grid, reps=3, master_seed=5,
                         finite_vectors=np.zeros((1, 1)), constants_mode="unit")
    for entry in report.aggregates["per_n"]:
        n = entry["n"]
        eps = 2.0 * math.log(n) / n
        from locrad.rademacher import default_iterations
        steps = min(default_iterations(eps), 8)
        r = 1.0
        for _ in range(steps):
            r = min(math.sqrt(r * eps) + eps, 1.0)
        assert entry["bound_median"] == pytest.approx(r, rel=1e-12)
    # single-step variant: bound = sqrt(eps) + eps, slope about -1/2
    report1 = L.run_rates(n_grid=grid, reps=1, master_seed=5,
                          finite_vectors=np.zeros((1, 1)), constants_mode="unit",
                          iteration_override=1)
    slope, _ = L.rate_exponent_fit(
        [(e["n"], e["bound_median"]) for e in report1.aggregates["per_n"]]
    )
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_run_rates_rows_equal_hand_composition():
    # pins the rates seed key (master, n, rep, tag) and the replication body
    grid, reps, master = [64, 128, 256, 512], 2, 31
    target = (0.2, 0.65)
    report = L.run_rates(n_grid=grid, reps=reps, master_seed=master, target=target)
    assert len(report.rows) == len(grid) * reps
    rows = iter(report.rows)
    for n in grid:
        eps = 2.0 * math.log(n) / n
        for rep in range(reps):
            row = next(rows)
            sample_seed = L.derive_seed(master, n, rep, L.simulate.TAG_SAMPLE)
            signs_seed = L.derive_seed(master, n, rep, L.simulate.TAG_SIGNS)
            sample = L.draw_sample(UNIFORM, n, sample_seed)
            labels = L.interval_labels(target, sample)
            result = L.risk_bound(L.ConceptClass.intervals(), labels, sample, eps=eps,
                                  seed=signs_seed, constants_mode="unit")
            risk = L.true_risk(L.minimal_interval_learner(sample, labels), target, UNIFORM)
            assert (row.rep, row.n, row.sample_seed, row.signs_seed) == (
                rep, n, sample_seed, signs_seed)
            assert (row.bound, row.risk, row.iterations, row.eps) == (
                result.bound, risk, result.iterations, eps)
            assert row.trace == result.trace.values


def test_run_rates_interval_smoke():
    report = L.run_rates(n_grid=[128, 256, 512, 1024], reps=4, master_seed=2,
                         constants_mode="unit")
    assert report.aggregates["slope"] < -0.3
    assert len(report.rows) == 16
    assert all(r.risk == 0.0 for r in report.rows)  # empty target, empty learner


# ---------------------------------------------------------------- ladder mc

def test_mc_mean_sup_deviation_shrinks_with_draws():
    radii = [0.5, 1.0]
    means, ses = L.mc_mean_sup_deviation(UNIFORM, (0.3, 0.7), 200, radii, 30, 17)
    assert means.shape == (2,) and ses.shape == (2,)
    assert np.all(means > 0.0) and np.all(ses > 0.0)
    assert means[1] >= means[0] - 1e-12  # ball grows with the radius


def test_diagnose_ladder_rows():
    rows = L.diagnose_ladder(dist=UNIFORM, target=(0.3, 0.7), n=150, eps=0.05,
                             radii=[0.2, 1.0], master_seed=4, mc_draws=10)
    assert [row["r"] for row in rows] == [0.2, 1.0]
    for row in rows:
        for key in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6"):
            assert row[key] is not None and row[key] >= 0.0
        assert row["phi1"] <= row["phi2"] <= row["phi3"]


def test_replication_result_invariant():
    with pytest.raises(ValueError):
        L.ReplicationResult(rep=0, n=10, eps=0.1, iterations=1, bound=0.5,
                            risk=0.6, violated=False, sample_seed=0, signs_seed=0)


def test_coverage_tolerance_formula():
    report = L.run_coverage(target=(0.3, 0.7), n=400, reps=20, master_seed=1,
                            eps=0.1)
    agg = report.aggregates
    cert = agg["certificate"]
    p = min(cert, 1.0)
    want = cert + 3.0 * math.sqrt(p * (1.0 - p) / 20) + 1.0 / 20
    assert agg["violation_tolerance"] == pytest.approx(want, rel=1e-12)


def test_env_thread_cap(monkeypatch):
    from locrad.simulate import _env_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("LOCRAD_THREADS", "3")
    assert _env_workers() == 3
    monkeypatch.setenv("LOCRAD_THREADS", "junk")
    assert _env_workers() == 1
    monkeypatch.delenv("LOCRAD_THREADS")
    assert _env_workers() == 1
    # a capped pool produces the same report as the serial path
    kw = dict(target=(0.3, 0.7), n=200, reps=6, master_seed=9, eps=0.05)
    monkeypatch.setenv("LOCRAD_THREADS", "4")
    pooled = L.run_coverage(**kw)
    monkeypatch.setenv("LOCRAD_THREADS", "1")
    serial = L.run_coverage(**kw)
    assert pooled.csv_rows() == serial.csv_rows()


def test_env_thread_cap_clamps_to_cpu_count(monkeypatch):
    from locrad.simulate import _env_workers

    cpus = os.cpu_count() or 1
    monkeypatch.setenv("LOCRAD_THREADS", str(cpus + 100))
    assert _env_workers() == cpus
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("LOCRAD_THREADS", "1000000")
    assert _env_workers() == 2
    monkeypatch.setenv("LOCRAD_THREADS", "2")
    assert _env_workers() == 2
    monkeypatch.setenv("LOCRAD_THREADS", "0")
    assert _env_workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    monkeypatch.setenv("LOCRAD_THREADS", "8")
    assert _env_workers() == 1


def test_oracle_k_max_zero():
    s = L.draw_sample(UNIFORM, 50, 8)
    assert L.oracle_sequence((0.2, 0.8), s, UNIFORM, 0) == [1.0]
    with pytest.raises(ValueError):
        L.oracle_sequence((0.2, 0.8), s, UNIFORM, -1)


def test_rates_rejects_bad_finite_vectors():
    with pytest.raises(ValueError):
        L.run_rates(n_grid=[64, 128, 256, 512], reps=1, master_seed=0,
                    finite_vectors=np.zeros((1, 7)), constants_mode="unit")
