import numpy as np
import pytest

from sentigen.errors import ContractError, MetricError
from sentigen.evaluation import (bin_scalar, compute_metric, decode_accuracy, evaluate_records,
                                 metric_mf1_excl_neutral, metric_wa, metric_wf1, metrics_msa,
                                 predict_label)
from sentigen.model import init_params

from conftest import small_config


def f1(golds, preds, cls):
    tp = sum(g == p == cls for g, p in zip(golds, preds))
    fp = sum(g != cls and p == cls for g, p in zip(golds, preds))
    fn = sum(g == cls and p != cls for g, p in zip(golds, preds))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def test_wa_exact_match():
    assert metric_wa(["a", "b", "c"], ["a", "b", "x"]) == pytest.approx(2 / 3)
    assert metric_wa([1.0, 2.0], [1.0, 2.0]) == 1.0


def test_wf1_worked_case():
    golds = ["a", "a", "b"]
    preds = ["a", "b", "b"]
    # class a: P=1, R=1/2, F1=2/3, weight 2/3; class b: P=1/2, R=1, F1=2/3, weight 1/3
    assert metric_wf1(golds, preds) == pytest.approx(2 / 3, abs=1e-12)


def test_wf1_ignores_classes_absent_from_gold():
    golds = ["a", "a"]
    preds = ["b", "a"]  # class b never appears in gold, contributes nothing
    assert metric_wf1(golds, preds) == pytest.approx(f1(golds, preds, "a"))


def test_mf1_excludes_neutral():
    golds = ["anger", "neutral", "joy", "joy"]
    preds = ["anger", "anger", "joy", "neutral"]
    want = (f1(golds, preds, "anger") + f1(golds, preds, "joy")) / 2
    assert metric_mf1_excl_neutral(golds, preds) == pytest.approx(want)
    with pytest.raises(MetricError):
        metric_mf1_excl_neutral(["neutral", "neutral"], ["neutral", "anger"])


def test_bin_scalar_rounds_halves_away_from_zero():
    cases = {0.0: 0, 0.4: 0, 0.5: 1, -0.5: -1, 2.5: 3, -2.5: -3, 1.49: 1,
             -1.5: -2, 3.4: 3, -9.0: -3, 2.999: 3}
    for v, want in cases.items():
        assert bin_scalar(v) == want, v


def test_msa_metric_triple():
    golds = [1.0, -2.0, 0.0, 2.6]
    preds = [1.4, -2.0, 1.0, -0.2]
    out = metrics_msa(golds, preds)
    assert out["mae"] == pytest.approx((0.4 + 0.0 + 1.0 + 2.8) / 4)
    # bins: (1,1) hit, (-2,-2) hit, (0,1) miss, (3,0) miss
    assert out["acc7"] == pytest.approx(0.5)
    # zero gold excluded; signs: +/+ hit, -/- hit, +/- miss
    assert out["acc2"] == pytest.approx(2 / 3)
    with pytest.raises(MetricError):
        metrics_msa([0.0, 0.0], [1.0, -1.0])


def test_mae_and_acc7_are_defined_when_every_gold_is_zero():
    """Only two-way accuracy leaves gold-zero samples out, so only it is
    undefined when every gold is zero; mae and acc7 score those samples."""
    golds, preds = [0.0, 0.0, 0.0], [0.0, 0.6, -1.5]
    assert compute_metric("mae", golds, preds) == pytest.approx(0.7)
    # bins: (0, 0) hit, (0, 1) miss, (0, -2) miss
    assert compute_metric("acc7", golds, preds) == pytest.approx(1 / 3)
    with pytest.raises(MetricError, match="zero"):
        compute_metric("acc2", golds, preds)


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(12)
    labels = ["a", "b", "c", "neutral"]
    for _ in range(60):
        n = int(rng.integers(2, 12))
        golds = [labels[i] for i in rng.integers(0, len(labels), size=n)]
        preds = [labels[i] for i in rng.integers(0, len(labels), size=n)]
        assert metric_wa(golds, preds) == pytest.approx(
            np.mean([g == p for g, p in zip(golds, preds)]))
        want_wf1 = sum(golds.count(c) / n * f1(golds, preds, c) for c in set(golds))
        assert metric_wf1(golds, preds) == pytest.approx(want_wf1)
        non_neutral = sorted(set(golds) - {"neutral"})
        if non_neutral:
            want_mf1 = np.mean([f1(golds, preds, c) for c in non_neutral])
            assert metric_mf1_excl_neutral(golds, preds) == pytest.approx(want_mf1)


def test_compute_metric_dispatch_and_errors():
    assert compute_metric("wa", ["x"], ["x"]) == 1.0
    assert compute_metric("acc7", [1.0], [1.2]) == 1.0
    with pytest.raises(MetricError):
        compute_metric("auc", ["x"], ["x"])
    with pytest.raises(ContractError):
        metric_wa(["x"], ["x", "y"])
    with pytest.raises(MetricError):
        metric_wa([], [])


@pytest.fixture(scope="module")
def eval_rig(toy):
    config = small_config(toy["vocab"], toy["registry"])
    params = init_params(config, np.random.default_rng(21))
    return config, params


def test_predict_label_stays_on_answer_set(toy, eval_rig):
    config, params = eval_rig
    registry, vocab = toy["registry"], toy["vocab"]
    for record in toy["records"][:8]:
        label, fallback = predict_label(record, params, config, vocab, registry, max_new=4)
        answer = registry.spec(record.dataset_id).answer
        if answer.scalar:
            assert -3.0 <= float(label) <= 3.0
        else:
            assert label in answer.labels
        assert isinstance(fallback, bool)


def test_evaluate_records_groups_and_scores(toy, eval_rig):
    config, params = eval_rig
    results = evaluate_records(toy["records"], params, config, toy["vocab"], toy["registry"],
                               max_new=4)
    assert set(results) == {"sst-toy", "absa-toy", "meld-toy", "mosi-toy"}
    for dataset_id, res in results.items():
        spec = toy["registry"].spec(dataset_id)
        assert set(res.metrics) == set(spec.metrics)
        assert len(res.golds) == len(res.preds) == len(res.fallbacks) == 6
        assert 0.0 <= res.fallback_rate <= 1.0
        for value in res.metrics.values():
            assert np.isfinite(value)
    # scores recompute from the recorded decode trail
    sst = results["sst-toy"]
    assert sst.metrics["wa"] == pytest.approx(metric_wa(sst.golds, sst.preds))


def test_decode_accuracy_counts_tolerant_scalar_hits(toy, eval_rig):
    config, params = eval_rig
    acc = decode_accuracy(toy["records"], params, config, toy["vocab"], toy["registry"],
                          max_new=4)
    assert 0.0 <= acc <= 1.0
