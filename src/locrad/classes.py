"""Samples, function classes, and their restriction to a sample.

A restriction is the set of distinct value vectors a class produces on a
fixed sample (the dichotomies, for 0/1-valued classes).  Interval classes
keep the restriction in structured form (contiguous runs over the sorted
sample) so downstream norm computations scale to large n without ever
materializing the vectors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAX_VECTORS = 10**6

KIND_INTERVALS = "intervals"
KIND_FINITE = "finite"


class InconsistentLabelsError(ValueError):
    """Labels are not realizable by any member of the class."""


class DimensionMismatchError(ValueError):
    """Class and sample live in different dimensions."""


@dataclass(frozen=True)
class Sample:
    """An ordered list of points in [0, 1]^d with seed provenance.

    For d = 1 the sorting permutation is precomputed and stored, since
    every interval-class operation works in sorted order.
    """

    points: np.ndarray
    seed: int | None = None
    sort_order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("sample needs at least one point")
        if np.any(pts < 0.0) or np.any(pts > 1.0) or not np.all(np.isfinite(pts)):
            raise ValueError("sample coordinates must lie in [0, 1]")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.shape[1] == 1:
            order = np.argsort(pts[:, 0], kind="stable")
        else:
            order = np.arange(pts.shape[0])
        order.flags.writeable = False
        object.__setattr__(self, "sort_order", order)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def sorted_values(self) -> np.ndarray:
        if self.dim != 1:
            raise DimensionMismatchError("sorted values only defined for d=1")
        return self.points[self.sort_order, 0]


def sorted_groups(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted values and cumulative point counts (length m+1).

    Tied points form one group; an interval either contains a whole group
    or none of it, so all run logic is group-aligned.
    """
    values, counts = np.unique(sample.sorted_values(), return_counts=True)
    cum = np.concatenate(([0], np.cumsum(counts)))
    return values, cum


@dataclass(frozen=True)
class ConceptClass:
    """A function class over [0, 1]^d with values in [0, 1].

    Two kinds are supported: closed intervals on [0, 1] (including the
    empty interval, so the zero function stays in every reduced class),
    and finite explicit classes given as value vectors bound to a specific
    sample.
    """

    kind: str
    vectors: np.ndarray | None = None
    bound_sample: Sample | None = None
    max_vectors: int = DEFAULT_MAX_VECTORS

    def __post_init__(self):
        if self.kind not in (KIND_INTERVALS, KIND_FINITE):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == KIND_FINITE:
            if self.vectors is None:
                raise ValueError("finite class needs explicit value vectors")
            vec = np.asarray(self.vectors, dtype=float)
            if vec.ndim != 2:
                raise ValueError("finite class vectors must be a 2-d array")
            if np.any(vec < 0.0) or np.any(vec > 1.0):
                raise ValueError("finite class values must lie in [0, 1]")
            if vec.shape[0] > self.max_vectors:
                raise ValueError(
                    f"finite class holds {vec.shape[0]} vectors, "
                    f"cap is {self.max_vectors}"
                )
            vec = vec.copy()
            vec.flags.writeable = False
            object.__setattr__(self, "vectors", vec)

    @classmethod
    def intervals(cls) -> "ConceptClass":
        return cls(kind=KIND_INTERVALS)

    @classmethod
    def finite(
        cls,
        vectors,
        bound_sample: Sample | None = None,
        max_vectors: int = DEFAULT_MAX_VECTORS,
    ) -> "ConceptClass":
        vec = np.asarray(vectors, dtype=float)
        if bound_sample is not None and vec.shape[1] != bound_sample.n:
            raise DimensionMismatchError(
                f"vectors of length {vec.shape[1]} bound to a sample of size "
                f"{bound_sample.n}"
            )
        return cls(
            kind=KIND_FINITE,
            vectors=vec,
            bound_sample=bound_sample,
            max_vectors=max_vectors,
        )


FAST_PATH_RUNS = "interval-runs"
FAST_PATH_SYMDIFF = "interval-symdiff"


@dataclass(frozen=True)
class SampledRestriction:
    """Distinct value vectors of a class restricted to a sample.

    Either `vectors` is materialized (finite classes), or the
    restriction is stored structurally for interval classes: runs of tie
    groups over the sorted sample, optionally XOR-ed against a target run
    (`fast_path` tags which maximizer applies).
    """

    n: int
    vectors: np.ndarray | None = None
    fast_path: str | None = None
    sort_order: np.ndarray | None = None
    group_cum: np.ndarray | None = None
    target_run: tuple[int, int] | None = None
    max_vectors: int = DEFAULT_MAX_VECTORS

    def __post_init__(self):
        if self.vectors is None and self.fast_path is None:
            raise ValueError("restriction needs vectors or a structured fast path")
        if self.vectors is not None:
            vec = np.asarray(self.vectors, dtype=float)
            if vec.ndim != 2 or vec.shape[1] != self.n:
                raise ValueError("restriction vectors must have shape (M, n)")
            if np.any(vec < 0.0) or np.any(vec > 1.0):
                raise ValueError("restriction values must lie in [0, 1]")
            vec = vec.copy()
            vec.flags.writeable = False
            object.__setattr__(self, "vectors", vec)

    @property
    def group_count(self) -> int:
        return len(self.group_cum) - 1

    @property
    def vector_count(self) -> int:
        """Number of distinct vectors in the restriction.

        Runs of groups map injectively onto symmetric differences (XOR by
        a fixed set is a bijection), so the structured count is exact.
        """
        if self.vectors is not None:
            return self.vectors.shape[0]
        m = self.group_count
        return m * (m + 1) // 2 + 1

    def materialize(self) -> np.ndarray:
        """Explicit (M, n) vector array, lexicographically sorted.

        Structured restrictions are expanded run by run; refuses to build
        more than `max_vectors` vectors.
        """
        if self.vectors is not None:
            return self.vectors
        if self.vector_count > self.max_vectors:
            raise ValueError(
                f"materializing {self.vector_count} vectors exceeds the cap "
                f"of {self.max_vectors}"
            )
        m = self.group_count
        cum = self.group_cum
        target_mask = np.zeros(self.n, dtype=bool)
        if self.target_run is not None:
            p, q = self.target_run
            target_mask[self.sort_order[cum[p]:cum[q + 1]]] = True
        rows = [target_mask.astype(float)]  # the empty run
        run_mask = np.zeros(self.n, dtype=bool)
        for i in range(m):
            for j in range(i, m):
                run_mask[:] = False
                run_mask[self.sort_order[cum[i]:cum[j + 1]]] = True
                rows.append(np.logical_xor(run_mask, target_mask).astype(float))
        return np.unique(np.array(rows), axis=0)


def _dedup(vectors: np.ndarray) -> np.ndarray:
    return np.unique(vectors, axis=0)


def restrict(concept_class: ConceptClass, sample: Sample) -> SampledRestriction:
    """Restriction of the class to the sample: distinct value vectors.

    Interval classes come back structured (indicators of contiguous runs
    over the sorted sample, plus the empty run).  Finite classes must be
    bound to this very sample.
    """
    if concept_class.kind == KIND_INTERVALS:
        if sample.dim != 1:
            raise DimensionMismatchError("interval class needs a 1-d sample")
        _, cum = sorted_groups(sample)
        return SampledRestriction(
            n=sample.n,
            fast_path=FAST_PATH_RUNS,
            sort_order=sample.sort_order,
            group_cum=cum,
            target_run=None,
            max_vectors=concept_class.max_vectors,
        )
    if concept_class.kind == KIND_FINITE:
        if concept_class.vectors.shape[1] != sample.n:
            raise DimensionMismatchError(
                f"class vectors have length {concept_class.vectors.shape[1]}, "
                f"sample has {sample.n} points"
            )
        bound = concept_class.bound_sample
        if bound is not None and not np.array_equal(bound.points, sample.points):
            raise ValueError("finite class is bound to a different sample")
        return SampledRestriction(
            n=sample.n,
            vectors=_dedup(concept_class.vectors),
            max_vectors=concept_class.max_vectors,
        )
    raise ValueError(f"unknown class kind {concept_class.kind!r}")


def reduce_by_labels(
    concept_class: ConceptClass, labels, sample: Sample
) -> SampledRestriction:
    """Restriction of {|f - f0|: f in class} given only the label vector.

    The zero vector is present exactly when the labels are realizable by a
    class member; otherwise InconsistentLabelsError is raised.
    """
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (sample.n,):
        raise DimensionMismatchError(
            f"labels of shape {labels.shape} for a sample of size {sample.n}"
        )
    if concept_class.kind == KIND_INTERVALS:
        return _reduce_intervals(concept_class, labels, sample)
    if concept_class.kind == KIND_FINITE:
        base = restrict(concept_class, sample)
        vectors = base.vectors
        if not np.any(np.all(vectors == labels, axis=1)):
            raise InconsistentLabelsError(
                "labels do not match any member of the class"
            )
        return SampledRestriction(
            n=sample.n,
            vectors=_dedup(np.abs(vectors - labels)),
            max_vectors=concept_class.max_vectors,
        )
    raise ValueError(f"unknown class kind {concept_class.kind!r}")


def _reduce_intervals(
    concept_class: ConceptClass, labels: np.ndarray, sample: Sample
) -> SampledRestriction:
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InconsistentLabelsError("interval labels must be 0/1")
    _, cum = sorted_groups(sample)
    sorted_labels = labels[sample.sort_order]
    m = len(cum) - 1
    starts = cum[:-1]
    group_min = np.minimum.reduceat(sorted_labels, starts)
    group_max = np.maximum.reduceat(sorted_labels, starts)
    if np.any(group_min != group_max):
        raise InconsistentLabelsError("tied points carry conflicting labels")
    positive = group_min == 1.0
    if not positive.any():
        target_run = None
        fast_path = FAST_PATH_RUNS
    else:
        idx = np.flatnonzero(positive)
        p, q = int(idx[0]), int(idx[-1])
        if not positive[p:q + 1].all():
            raise InconsistentLabelsError(
                "a negative point lies strictly between two positives"
            )
        target_run = (p, q)
        fast_path = FAST_PATH_SYMDIFF
    return SampledRestriction(
        n=sample.n,
        fast_path=fast_path,
        sort_order=sample.sort_order,
        group_cum=cum,
        target_run=target_run,
        max_vectors=concept_class.max_vectors,
    )


def load_sample_csv(path, seed: int | None = None) -> Sample:
    """Sample from CSV: one point per row, d columns, optional header."""
    rows = _load_numeric_csv(path)
    return Sample(points=np.array(rows), seed=seed)


def load_vectors_csv(path) -> np.ndarray:
    """Finite-class value vectors from CSV: one vector per row, n columns."""
    rows = _load_numeric_csv(path)
    return np.array(rows)


def _load_numeric_csv(path) -> list[list[float]]:
    rows = []
    with open(path, newline="") as handle:
        for record in csv.reader(handle):
            if not record or not "".join(record).strip():
                continue
            try:
                rows.append([float(cell) for cell in record])
            except ValueError:
                if rows:
                    raise ValueError(f"non-numeric row in {path}: {record}")
                continue  # header line
    if not rows:
        raise ValueError(f"no numeric rows found in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in {path}")
    return rows
