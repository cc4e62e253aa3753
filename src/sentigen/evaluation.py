"""Classification and regression metrics, plus generate-and-decode evaluation.

Metric menu (selected per dataset in the registry):
  wa                exact-match accuracy over label strings
  wf1               F1 per gold class, weighted by class support
  mf1_excl_neutral  unweighted mean F1 over non-neutral gold classes
  mae               mean absolute error over scalar labels
  acc7              accuracy after binning into the 7 integer anchors
  acc2              positive/negative accuracy, gold-zero samples excluded
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DecodeError, MetricError
from .model import generate_batch
from .model import generate  # noqa: F401  traced by name by benchmarks/tracing.py
from .prompt import build_prompt, decode_label


def _check_lengths(golds, preds):
    if len(golds) != len(preds):
        raise ContractError(f"gold/prediction length mismatch: {len(golds)} vs {len(preds)}")
    if not golds:
        raise MetricError("cannot score an empty sample set")


def metric_wa(golds, preds):
    """Weighted accuracy here is plain exact-match accuracy: every sample
    counts once, so class weights equal class frequencies."""
    _check_lengths(golds, preds)
    return float(sum(1 for g, p in zip(golds, preds) if g == p) / len(golds))


def _f1_for_class(golds, preds, cls):
    tp = sum(1 for g, p in zip(golds, preds) if g == cls and p == cls)
    fp = sum(1 for g, p in zip(golds, preds) if g != cls and p == cls)
    fn = sum(1 for g, p in zip(golds, preds) if g == cls and p != cls)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metric_wf1(golds, preds):
    """Per-class F1 weighted by gold support, over classes present in gold."""
    _check_lengths(golds, preds)
    total = len(golds)
    classes = sorted(set(golds))
    return float(sum((golds.count(c) / total) * _f1_for_class(golds, preds, c)
                     for c in classes))


def metric_mf1_excl_neutral(golds, preds):
    """Unweighted mean F1 over gold classes other than "neutral"."""
    _check_lengths(golds, preds)
    classes = sorted(set(golds) - {"neutral"})
    if not classes:
        raise MetricError("every gold label is neutral; no classes left to average")
    return float(np.mean([_f1_for_class(golds, preds, c) for c in classes]))


def bin_scalar(value):
    """Round to the nearest integer anchor, halves away from zero, clamped to
    [-3, 3] (so 2.5 -> 3 and -2.5 -> -3)."""
    v = float(value)
    b = np.sign(v) * np.floor(abs(v) + 0.5)
    return int(min(3.0, max(-3.0, b)))


def _msa_metric(name, golds, preds):
    """``metrics_msa``'s ``name`` entry alone: only ``acc2`` needs a nonzero gold."""
    _check_lengths(golds, preds)
    g = np.asarray([float(x) for x in golds], dtype=np.float64)
    p = np.asarray([float(x) for x in preds], dtype=np.float64)
    if name == "mae":
        return float(np.mean(np.abs(g - p)))
    if name == "acc7":
        return float(np.mean([bin_scalar(a) == bin_scalar(b) for a, b in zip(g, p)]))
    nonzero = g != 0.0
    if not nonzero.any():
        raise MetricError("every gold label is zero; two-way accuracy is undefined")
    return float(np.mean((g[nonzero] > 0.0) == (p[nonzero] > 0.0)))


def metrics_msa(golds, preds):
    """Scalar sentiment triple: mae, seven-way bin accuracy, and two-way
    sign accuracy with gold-zero samples excluded."""
    return {name: _msa_metric(name, golds, preds) for name in ("mae", "acc7", "acc2")}


def compute_metric(name, golds, preds):
    if name == "wa":
        return metric_wa(golds, preds)
    if name == "wf1":
        return metric_wf1(golds, preds)
    if name == "mf1_excl_neutral":
        return metric_mf1_excl_neutral(golds, preds)
    if name in ("mae", "acc7", "acc2"):
        return _msa_metric(name, golds, preds)
    raise MetricError(f"unknown metric {name!r}")


@dataclass
class EvalResult:
    """Scores for one dataset plus the per-sample decode trail."""

    dataset_id: str
    metrics: dict
    golds: list = field(default_factory=list)
    preds: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)

    @property
    def fallback_rate(self):
        return float(np.mean(self.fallbacks)) if self.fallbacks else 0.0


def _answer(record, ids, registry, vocab):
    """Decode generated ``ids`` onto the record's answer set: (value, fallback).
    A decode dead-end (empty generation) falls back to the default answer
    rather than aborting an evaluation pass."""
    spec = registry.spec(record.dataset_id)
    try:
        decoded = decode_label(ids, spec.answer, vocab)
    except DecodeError:
        default = 0.0 if spec.answer.scalar else spec.answer.labels[0]
        return default, True
    return decoded.value, decoded.fallback


def _prompts(records, config, vocab, registry):
    return [build_prompt(r, vocab, registry, config.max_len) for r in records]


def predict_label(record, params, config, vocab, registry, max_new=8):
    """Generate greedily for one record and decode onto its answer set."""
    return predict_labels([record], _prompts([record], config, vocab, registry), params, config,
                          vocab, registry, max_new=max_new)[0]


def predict_labels(records, prompts, params, config, vocab, registry, max_new=8):
    """``predict_label`` for every record, in order, from its prompt in
    ``prompts``, decoded in padded batches of consecutive records."""
    generated = generate_batch(prompts, params, config, vocab, max_new=max_new)
    return [_answer(r, ids, registry, vocab) for r, ids in zip(records, generated)]


def evaluate_records(records, params, config, vocab, registry, max_new=8):
    """Score records grouped by dataset with each dataset's registered
    metrics. Returns {dataset_id: EvalResult} for datasets present."""
    return evaluate_prompts(records, _prompts(records, config, vocab, registry), params, config,
                            vocab, registry, max_new=max_new)


def evaluate_prompts(records, prompts, params, config, vocab, registry, max_new=8):
    """``evaluate_records`` on prompts built ahead, one per record: a
    training run builds its validation prompts once, in its plan."""
    grouped = {}
    for record, prediction in zip(records, predict_labels(records, prompts, params, config, vocab,
                                                          registry, max_new=max_new)):
        grouped.setdefault(record.dataset_id, []).append((record, prediction))
    results = {}
    for dataset_id, group in grouped.items():
        spec = registry.spec(dataset_id)
        golds, preds, fallbacks = [], [], []
        for record, (pred, fb) in group:
            gold = float(record.label) if spec.answer.scalar else str(record.label)
            golds.append(gold)
            preds.append(pred)
            fallbacks.append(fb)
        metrics = {name: compute_metric(name, golds, preds) for name in spec.metrics}
        results[dataset_id] = EvalResult(dataset_id=dataset_id, metrics=metrics,
                                         golds=golds, preds=preds, fallbacks=fallbacks)
    return results


def decode_accuracy(records, params, config, vocab, registry, max_new=8):
    """Fraction of records whose generated answer decodes to the gold label
    (scalars within 0.05). Used to check training actually fits."""
    if not records:
        raise MetricError("cannot score an empty sample set")
    hits = 0
    prompts = _prompts(records, config, vocab, registry)
    for record, (pred, _) in zip(records, predict_labels(records, prompts, params, config, vocab,
                                                         registry, max_new=max_new)):
        spec = registry.spec(record.dataset_id)
        if spec.answer.scalar:
            hits += abs(float(pred) - float(record.label)) <= 0.05
        else:
            hits += str(pred) == str(record.label)
    return hits / len(records)
