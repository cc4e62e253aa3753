"""Cross-dataset annotation transfer and subjective-bias scores.

Records from a source dataset are re-annotated with the label of the nearest
target-dataset centroid in representation space; the resulting cross-dataset
accuracy matrix (percent) feeds two scores:

  ana[i, j] = |acc[i, i] - acc[i, j]|      one-directional gap
  sub[i, j] = |ana[i, j] - ana[j, i]|      symmetric difference

A small published accuracy matrix over four conversation/sentiment corpora
ships as a fixture so the score pipeline can be exercised without training.

``label_centroids`` and ``nearest_labels`` are the one nearest-centroid kernel
of the package: stage two's cross-task pseudo labels use it too.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ContractError, DataError, ShapeError

FIXTURE_NAME = "cross_annotation_accuracy.json"


@dataclass(frozen=True)
class AccuracyMatrix:
    """Square cross-annotation accuracy table in percent; rows are source
    datasets, columns are annotation (target) datasets."""

    datasets: tuple
    acc: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.acc, dtype=np.float64)
        n = len(self.datasets)
        if arr.shape != (n, n):
            raise ShapeError(f"accuracy matrix shape {arr.shape} does not match {n} datasets")
        object.__setattr__(self, "acc", arr)

    def to_json(self):
        return {"datasets": list(self.datasets),
                "accuracy_percent": [[float(x) for x in row] for row in self.acc]}

    @classmethod
    def from_json(cls, obj):
        if not (isinstance(obj, dict) and isinstance(obj.get("datasets"), list)
                and all(isinstance(d, str) for d in obj["datasets"])):
            raise DataError("accuracy matrix must be an object with a 'datasets' list of names")
        try:
            acc = np.asarray(obj.get("accuracy_percent"), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"'accuracy_percent' must be a square table of numbers: {exc}") from None
        return cls(datasets=tuple(obj["datasets"]), acc=acc)


def fixture_accuracy_matrix():
    """The bundled published cross-annotation accuracy table."""
    payload = resources.files("sentigen.fixtures").joinpath(FIXTURE_NAME).read_text("utf-8")
    return AccuracyMatrix.from_json(json.loads(payload))


@dataclass(frozen=True)
class BiasReport:
    datasets: tuple
    ana: np.ndarray
    sub: np.ndarray

    def to_json(self):
        return {"datasets": list(self.datasets),
                "bias_ana": [[float(x) for x in row] for row in self.ana],
                "bias_sub": [[float(x) for x in row] for row in self.sub]}


def bias_report(acc):
    """All pairwise scores for an accuracy matrix: ``ana[i, j]`` is dataset
    i's own-annotation accuracy less its accuracy under dataset j's scheme,
    in absolute value, and ``sub`` is ``|ana - ana.T|``. The diagonal is zero
    by construction; sub is symmetric."""
    ana = np.abs(np.diag(acc.acc)[:, None] - acc.acc)
    return BiasReport(datasets=acc.datasets, ana=ana, sub=np.abs(ana - ana.T))


def render_bias_report(report):
    """Aligned text tables for terminal output, two decimals a cell."""
    names = list(report.datasets)
    width = max(len(n) for n in names) + 2
    cell = max(width, 7)

    def table(title, mat):
        lines = [title, " " * width + "".join(f"{n:>{cell}}" for n in names)]
        for i, n in enumerate(names):
            row = "".join(f"{mat[i, j]:>{cell}.2f}" for j in range(len(names)))
            lines.append(f"{n:<{width}}" + row)
        return "\n".join(lines)

    return table("annotation-transfer gap (|own - cross| accuracy, %)", report.ana) \
        + "\n\n" + table("subjective bias (symmetric, %)", report.sub) + "\n"


# ---------------------------------------------------------------------------
# cross annotation from representations


def label_centroids(labels, vectors):
    """The sorted distinct ``labels`` and a (C, d) matrix whose row k is the
    mean of the ``vectors`` (N, d) labelled with the k-th of them. Each mean
    is an in-order running sum over the count, not np.mean's pairwise sum:
    stage-two pseudo labels, and through them checkpoints, depend on these
    bits."""
    if not len(labels):
        raise ContractError("cannot build centroids from zero items")
    try:
        x = np.asarray(vectors, dtype=np.float64)
    except ValueError:
        raise ShapeError("vectors differ in shape") from None
    if x.ndim != 2 or len(x) != len(labels):
        raise ShapeError(f"{len(labels)} labels for vectors of shape {x.shape}")
    names, which = np.unique(np.asarray(labels), return_inverse=True)
    sums = np.zeros((len(names), x.shape[1]))
    np.add.at(sums, which, x)
    return names, sums / np.bincount(which)[:, None]


def nearest_labels(vectors, centroids):
    """Row index of the nearest of ``centroids`` (C, d) for each row of
    ``vectors`` (N, d). Squared distances are sums of ``(x - c) ** 2``, not
    the expanded form, so exact ties stay exact, and a tie goes to the
    smaller index."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or np.ndim(centroids) != 2 or x.shape[1] != np.shape(centroids)[1]:
        raise ShapeError(f"vectors of shape {x.shape} do not match centroids of shape "
                         f"{np.shape(centroids)}")
    return np.argmin(np.stack([((x - c) ** 2).sum(axis=1) for c in centroids], axis=1), axis=1)


def cross_annotate(source_items, target_centroids, correspondence=None):
    """Re-annotate source (gold_label, vector) pairs with the nearest of the
    target's ``label_centroids`` and score agreement.

    ``correspondence`` maps source gold labels onto target labels (identity by
    default); sources mapping to None never count as agreement. Returns
    (pseudo_labels, accuracy_percent).
    """
    if not source_items:
        raise ContractError("cannot cross-annotate zero items")
    names, centroids = target_centroids
    pseudo = names[nearest_labels([vec for _, vec in source_items], centroids)].tolist()
    expected = [str(gold) if correspondence is None else correspondence.get(str(gold))
                for gold, _ in source_items]
    hits = sum(want is not None and want == got for want, got in zip(expected, pseudo))
    return pseudo, 100.0 * hits / len(source_items)


def build_accuracy_matrix(items_by_dataset, correspondence=None):
    """Cross-annotation accuracy matrix over datasets.

    ``items_by_dataset`` maps dataset_id to (gold_label, vector) pairs, and
    its key order is the matrix's dataset order; ``correspondence``
    optionally maps (source_id, target_id) to a label map. Entry [i][j]
    annotates dataset i's items with dataset j's centroids.
    """
    names = tuple(items_by_dataset)
    centroids = {name: label_centroids([str(gold) for gold, _ in items_by_dataset[name]],
                                       [vec for _, vec in items_by_dataset[name]])
                 for name in names}
    n = len(names)
    acc = np.zeros((n, n))
    for i, src in enumerate(names):
        for j, tgt in enumerate(names):
            cmap = correspondence.get((src, tgt)) if correspondence else None
            _, acc[i, j] = cross_annotate(items_by_dataset[src], centroids[tgt], cmap)
    return AccuracyMatrix(datasets=names, acc=acc)
