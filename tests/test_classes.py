import numpy as np
import pytest

from locrad.classes import (
    ConceptClass,
    DimensionMismatchError,
    InconsistentLabelsError,
    Sample,
    reduce_by_labels,
    restrict,
    sorted_groups,
)
from locrad.simulate import interval_labels

from conftest import brute_interval_dichotomies


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(points=np.array([[1.5]]))
    with pytest.raises(ValueError):
        Sample(points=np.empty((0, 1)))
    s = Sample(points=[0.3, 0.1, 0.2])
    assert s.n == 3 and s.dim == 1
    assert np.array_equal(s.sorted_values(), [0.1, 0.2, 0.3])


def test_sample_sort_order_consistent():
    s = Sample(points=[0.9, 0.1, 0.5, 0.1])
    assert np.all(np.diff(s.points[s.sort_order, 0]) >= 0)


def test_groups_with_ties():
    s = Sample(points=[0.2, 0.1, 0.2, 0.3])
    values, cum = sorted_groups(s)
    assert np.array_equal(values, [0.1, 0.2, 0.3])
    assert np.array_equal(cum, [0, 1, 3, 4])


def test_restrict_intervals_three_points():
    s = Sample(points=[0.1, 0.2, 0.3])
    r = restrict(ConceptClass.intervals(), s)
    assert r.vector_count == 7
    got = {v.tobytes() for v in r.materialize()}
    assert got == brute_interval_dichotomies(s.points[:, 0])


@pytest.mark.parametrize("n", range(1, 9))
def test_restrict_intervals_matches_brute_force(n, rng):
    pts = np.sort(rng.random(n))
    s = Sample(points=pts)
    r = restrict(ConceptClass.intervals(), s)
    got = {v.tobytes() for v in r.materialize()}
    assert got == brute_interval_dichotomies(pts)
    assert r.vector_count == len(got)
    assert r.vector_count == n * (n + 1) // 2 + 1


def test_restrict_finite_all_zero():
    s = Sample(points=[0.5, 0.6])
    cls = ConceptClass.finite(np.zeros((1, 2)))
    r = restrict(cls, s)
    assert r.vector_count == 1
    assert np.array_equal(r.materialize(), np.zeros((1, 2)))


def test_restrict_finite_dedups():
    s = Sample(points=[0.5, 0.6])
    cls = ConceptClass.finite([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    assert restrict(cls, s).vector_count == 2


def test_restrict_finite_bound_to_other_sample():
    s1 = Sample(points=[0.1, 0.2])
    s2 = Sample(points=[0.3, 0.4])
    cls = ConceptClass.finite(np.zeros((1, 2)), bound_sample=s1)
    with pytest.raises(ValueError):
        restrict(cls, s2)


def test_restrict_dimension_mismatch():
    s2d = Sample(points=np.array([[0.1, 0.2]]))
    with pytest.raises(DimensionMismatchError):
        restrict(ConceptClass.intervals(), s2d)


def test_restrict_idempotent_on_finite():
    s = Sample(points=[0.1, 0.4, 0.9])
    base = restrict(ConceptClass.intervals(), s).materialize()
    again = restrict(ConceptClass.finite(base), s)
    assert np.array_equal(again.materialize(), base)


def test_reduce_empty_target_is_restrict():
    s = Sample(points=[0.15, 0.55, 0.8, 0.3])
    reduced = reduce_by_labels(ConceptClass.intervals(), interval_labels(None, s), s)
    base = restrict(ConceptClass.intervals(), s)
    assert np.array_equal(reduced.materialize(), base.materialize())


def test_reduce_singleton_to_zero():
    s = Sample(points=[0.1, 0.9])
    v = np.array([[0.25, 0.75]])
    cls = ConceptClass.finite(v)
    reduced = reduce_by_labels(cls, v[0], s)
    assert np.array_equal(reduced.materialize(), np.zeros((1, 2)))


def test_reduce_interval_target_point_values():
    # points (0.1, 0.2, 0.3), target [0.15, 0.25], candidate [0.1, 0.3]
    # evaluates to |1 - 0| at the outer points and |1 - 1| at the middle
    s = Sample(points=[0.1, 0.2, 0.3])
    labels = interval_labels((0.15, 0.25), s)
    assert np.array_equal(labels, [0.0, 1.0, 0.0])
    reduced = reduce_by_labels(ConceptClass.intervals(), labels, s)
    mat = reduced.materialize()
    assert any(np.array_equal(row, [1.0, 0.0, 1.0]) for row in mat)
    assert np.all(mat == 0.0, axis=1).any()


def test_reduce_matches_elementwise_abs_difference(rng):
    # structural symdiff path vs |v - y| applied to the materialized base
    pts = rng.random(9)
    s = Sample(points=pts)
    lo, hi = np.sort(rng.random(2))
    labels = interval_labels((lo, hi), s)
    reduced = reduce_by_labels(ConceptClass.intervals(), labels, s)
    base = restrict(ConceptClass.intervals(), s).materialize()
    want = np.unique(np.abs(base - labels), axis=0)
    assert np.array_equal(reduced.materialize(), want)


def test_reduce_zero_target_identity_on_binary(rng):
    pts = rng.random(6)
    s = Sample(points=pts)
    base = restrict(ConceptClass.intervals(), s).materialize()
    cls = ConceptClass.finite(base)
    reduced = reduce_by_labels(cls, np.zeros(6), s)
    assert np.array_equal(reduced.materialize(), base)


def test_reduce_rejects_foreign_labels():
    s = Sample(points=[0.1, 0.2, 0.3])
    with pytest.raises(InconsistentLabelsError):
        reduce_by_labels(ConceptClass.intervals(), [1.0, 0.0, 1.0], s)
    cls = ConceptClass.finite(np.zeros((1, 3)))
    with pytest.raises(InconsistentLabelsError):
        reduce_by_labels(cls, [1.0, 0.0, 0.0], s)


def test_reduce_with_tied_points():
    s = Sample(points=[0.2, 0.2, 0.5])
    labels = np.array([1.0, 1.0, 0.0])
    reduced = reduce_by_labels(ConceptClass.intervals(), labels, s)
    assert np.all(reduced.materialize() == 0.0, axis=1).any()
    with pytest.raises(InconsistentLabelsError):
        reduce_by_labels(ConceptClass.intervals(), [1.0, 0.0, 0.0], s)


def test_vector_cap_enforced():
    s = Sample(points=np.linspace(0.0, 1.0, 80))
    cls = ConceptClass(kind="intervals", max_vectors=100)
    with pytest.raises(ValueError):
        restrict(cls, s).materialize()


def test_csv_loaders(tmp_path):
    from locrad.classes import load_sample_csv, load_vectors_csv

    sample_file = tmp_path / "points.csv"
    sample_file.write_text("x\n0.1\n0.5\n0.9\n")
    s = load_sample_csv(sample_file, seed=3)
    assert s.n == 3 and s.seed == 3

    vec_file = tmp_path / "vectors.csv"
    vec_file.write_text("0,1,0\n1,1,0\n")
    v = load_vectors_csv(vec_file)
    assert v.shape == (2, 3)

    bad = tmp_path / "ragged.csv"
    bad.write_text("0,1\n1\n")
    with pytest.raises(ValueError):
        load_vectors_csv(bad)
