import numpy as np
import pytest

from sentigen.bias import (AccuracyMatrix, bias_report, build_accuracy_matrix, cross_annotate,
                           fixture_accuracy_matrix, label_centroids, nearest_labels,
                           render_bias_report)
from sentigen.errors import ContractError, ShapeError


def test_fixture_matrix_loads():
    acc = fixture_accuracy_matrix()
    assert acc.datasets == ("iemocap", "meld", "emorynlp", "mosi")
    assert acc.acc.shape == (4, 4)
    assert acc.acc[0, 0] == pytest.approx(64.30)


def test_one_directional_gap_worked_cases():
    report = bias_report(fixture_accuracy_matrix())
    assert report.ana[0, 1] == pytest.approx(abs(64.30 - 37.36), abs=1e-9)  # 26.94
    assert report.ana[1, 0] == pytest.approx(abs(62.29 - 55.36), abs=1e-9)  # 6.93
    assert report.ana[2, 2] == 0.0


def test_published_symmetric_scores():
    acc = fixture_accuracy_matrix()
    report = bias_report(acc)
    want = {(0, 1): 20.01, (0, 2): 43.58, (0, 3): 23.57,
            (1, 2): 19.10, (1, 3): 10.47, (2, 3): 8.93}
    for (i, j), value in want.items():
        assert report.sub[i][j] == pytest.approx(value, abs=0.01)
        assert report.sub[i, j] == abs(report.ana[i, j] - report.ana[j, i])


def test_report_is_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        acc = AccuracyMatrix(datasets=tuple(f"d{k}" for k in range(n)),
                             acc=rng.uniform(0, 100, size=(n, n)))
        report = bias_report(acc)
        sub = np.asarray(report.sub)
        ana = np.asarray(report.ana)
        np.testing.assert_allclose(sub, sub.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(sub), np.zeros(n))
        np.testing.assert_array_equal(np.diag(ana), np.zeros(n))
        for i in range(n):
            for j in range(n):
                assert ana[i][j] == pytest.approx(abs(acc.acc[i, i] - acc.acc[i, j]))


def test_render_contains_names_and_values():
    text = render_bias_report(bias_report(fixture_accuracy_matrix()))
    for name in ("iemocap", "meld", "emorynlp", "mosi"):
        assert name in text
    assert "20.01" in text and "8.93" in text


def test_matrix_shape_validation():
    with pytest.raises(ShapeError):
        AccuracyMatrix(datasets=("a", "b"), acc=np.zeros((3, 3)))


def test_label_centroids_means_and_order():
    names, cents = label_centroids(["pos", "neg", "pos"], [[2.0, 0.0], [0.0, 4.0], [4.0, 2.0]])
    assert names.tolist() == ["neg", "pos"]
    np.testing.assert_array_equal(cents, [[0.0, 4.0], [3.0, 1.0]])
    # integer labels sort as numbers: stage two's label indices
    names, _ = label_centroids([10, 2, 10], np.zeros((3, 1)))
    assert names.tolist() == [2, 10]
    with pytest.raises(ContractError):
        label_centroids([], [])
    with pytest.raises(ShapeError):
        label_centroids(["a", "b"], [[1.0], [1.0, 2.0]])
    with pytest.raises(ShapeError):
        label_centroids(["a", "b"], [[1.0]])


def test_label_centroids_sum_in_item_order():
    # Nine copies of 0.1: the in-order running sum rounds differently from the
    # pairwise summation np.mean uses over a stack of one-wide vectors.
    total = 0.1
    for _ in range(8):
        total += 0.1
    assert total / 9 != np.mean(np.full((9, 1), 0.1), axis=0)[0]
    _, [centroid] = label_centroids(["x"] * 9, [[0.1]] * 9)
    assert centroid[0] == total / 9


def test_nearest_label_tie_break():
    names, cents = label_centroids(["beta", "alpha"], [[1.0], [-1.0]])
    assert names[nearest_labels([[0.0], [0.2]], cents)].tolist() == ["alpha", "beta"]
    assert nearest_labels([[0.0]], [[1.0], [-1.0]]).tolist() == [0]


def test_nearest_labels_matches_brute_force():
    rng = np.random.default_rng(31)
    names = list("abcdefg")
    ties = 0
    for n, c, d in [(1, 1, 1), (1, 3, 1), (4, 1, 2), (1, 2, 3)] + [
            tuple(int(x) for x in rng.integers(1, 6, size=3)) for _ in range(80)]:
        # small integer grids so exact distance ties occur
        labels = [str(x) for x in rng.permutation(names)[:c]]
        labs, cents = label_centroids(labels, rng.integers(-1, 2, size=(c, d)).astype(float))
        vectors = rng.integers(-1, 2, size=(n, d)).astype(float)
        got = nearest_labels(vectors, cents)
        assert len(got) == n
        for x, k in zip(vectors, got):
            d2 = {lab: float(np.sum((x - cv) ** 2)) for lab, cv in zip(labs, cents)}
            best = min(d2, key=lambda lab: (d2[lab], lab))
            ties += sum(v == d2[best] for v in d2.values()) > 1
            assert labs[k] == best
    assert ties > 0


def test_nearest_labels_rejects_bad_shapes():
    _, cents = label_centroids(["a", "b"], [[1.0, 2.0], [0.0, 0.0]])
    for bad in ([[1.0]], [1.0, 2.0], [[[1.0, 2.0]]]):
        with pytest.raises(ShapeError):
            nearest_labels(bad, cents)


def test_cross_annotate_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        n_labels = int(rng.integers(1, 4))
        labels = [f"l{k}" for k in range(n_labels)]
        target = [(labels[int(rng.integers(n_labels))], rng.normal(size=dim))
                  for _ in range(int(rng.integers(2, 8)))]
        source = [(labels[int(rng.integers(n_labels))], rng.normal(size=dim))
                  for _ in range(int(rng.integers(1, 8)))]
        cents = label_centroids([lab for lab, _ in target], [vec for _, vec in target])
        pseudo, acc = cross_annotate(source, cents)
        hits = 0
        for (gold, vec), assigned in zip(source, pseudo):
            d = [(float(np.sum((np.asarray(vec) - c) ** 2)), lab) for lab, c in zip(*cents)]
            best = min(d)[1]
            assert assigned == best
            hits += best == gold
        assert acc == pytest.approx(100.0 * hits / len(source))


def test_cross_annotate_correspondence():
    cents = label_centroids(["happy", "sad"], [[1.0], [-1.0]])
    source = [("pos", [2.0]), ("neg", [-2.0]), ("other", [1.5])]
    pseudo, acc = cross_annotate(source, cents,
                                 correspondence={"pos": "happy", "neg": "sad", "other": None})
    assert pseudo == ["happy", "sad", "happy"]
    assert acc == pytest.approx(100.0 * 2 / 3)
    # unmapped gold labels never count as hits
    _, acc_none = cross_annotate(source, cents, correspondence={})
    assert acc_none == 0.0
    with pytest.raises(ContractError, match="zero items"):
        cross_annotate([], cents)


def test_build_accuracy_matrix_self_annotation():
    rng = np.random.default_rng(10)
    items = {
        "a": [("x", rng.normal(size=3) + 5), ("y", rng.normal(size=3) - 5),
              ("x", rng.normal(size=3) + 5)],
        "b": [("x", rng.normal(size=3) + 5), ("y", rng.normal(size=3) - 5)],
    }
    mat = build_accuracy_matrix(items)
    assert mat.datasets == ("a", "b")
    # well-separated clusters self-annotate perfectly
    assert mat.acc[0, 0] == 100.0 and mat.acc[1, 1] == 100.0
    # the mapping's key order is the matrix's dataset order
    flipped = build_accuracy_matrix({"b": items["b"], "a": items["a"]})
    assert flipped.datasets == ("b", "a") and np.array_equal(flipped.acc, mat.acc[::-1, ::-1])
