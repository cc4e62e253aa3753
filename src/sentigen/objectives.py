"""Pre-training objectives and their stage compositions.

Every loss is a head on one packed-batch encoding from
``model.encode_batch``, and the stage compositions own the encoder passes:
stage one makes a corrupted pass for reconstruction and a clean one for
polarity and contrast; stage two makes one corrupted pass that
reconstruction and cross-task prediction share; answer generation makes one
clean pass. With dropout on, each batched tensor draws one mask, so stage
two's terms share their encoder's dropped units; by linearity the expected
loss is that of two separate passes. The four losses:

* masked reconstruction (``loss_mcm``): predict the original tokens at masked
  positions from the corrupted encoder stream; summed per sample, averaged
  over the batch.
* polarity prediction (``loss_spp``): cross-entropy of the decoder's first
  generated position against the sample's coarse polarity.
* polarity-contrastive pull (``loss_ccl``): for each sample, the fraction of
  its total pairwise distance mass spent on same-polarity partners, one
  ``ad.pair_contrast`` node.
* cross-task label prediction (``loss_cep``): per task family, at a
  dedicated decoder position, against nearest-centroid pseudo labels (gold
  for the sample's own task), summed over the tasks.

Both predictions are one label head (``_label_head``) that scores only the
label tokens: the polarity tokens, or each task's label tokens.

Stage one totals reconstruction + polarity + contrastive; stage two totals
reconstruction + cross-task prediction. A pseudo label is an index into its
task's sorted label table, so stage two's labels are one (N, T) int64 matrix
over N records and the table's T tasks. ``build_centroids`` and
``assign_pseudo_labels`` compute it with ``bias.label_centroids`` and
``bias.nearest_labels``, the kernel the dataset-bias cross-annotation also
uses, and ``label_token_ids`` turns the table into ``loss_cep``'s classes
once per run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bias import label_centroids, nearest_labels
from .data import Polarity
from .errors import ContractError, VocabularyError
from .model import decoder_states, encode_batch, token_logits
from .model import encode  # noqa: F401  traced by name by benchmarks/tracing.py
from .prompt import tokenize

POLARITY_ORDER = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)


@dataclass
class LossReport:
    """Per-batch component values (plain floats) plus their weighted total."""

    mcm: float = 0.0
    spp: float = 0.0
    ccl: float = 0.0
    cep: float = 0.0
    total: float = 0.0


@dataclass(frozen=True)
class Stage1Example:
    prompt: object          # PromptSequence with the modal setting applied
    plan: object            # MaskPlan for the reconstruction term
    polarity: Polarity


@dataclass(frozen=True)
class Stage2Example:
    prompt: object
    plan: object
    pseudo: object          # (T,) label indices: a row of the pseudo-label matrix


def polarity_token_ids(vocab):
    return tuple(vocab.id_of(p.value) for p in POLARITY_ORDER)


def _check_batch(enc, samples, name):
    b = len(enc.offsets) - 1
    if not samples or len(samples) != b:
        raise ContractError(f"{name}: {len(samples)} samples for an encoded batch of {b}")


# ---------------------------------------------------------------------------
# reconstruction


def loss_mcm(enc, batch, params):
    """Masked-token reconstruction from ``enc``, the corrupted encoding of
    ``batch``, a list of (prompt, plan): one cross-entropy over the masked
    rows of all samples, scaled to a per-sample sum averaged over the batch."""
    _check_batch(enc, batch, "loss_mcm")
    rows, targets = [], []
    for start, (ps, plan) in zip(enc.offsets, batch):
        rows.extend(start + p for p in plan.masked_token_positions)
        targets.extend(ps.ids[p] for p in plan.masked_token_positions)
    if not rows:
        return ad.constant(0.0)
    ce = ad.softmax_cross_entropy(token_logits(ad.embedding(enc.states, rows), params), targets)
    return ad.scale(ce, len(rows) / len(batch))


# ---------------------------------------------------------------------------
# the label head, and polarity prediction


def _label_head(enc, dec_ids, classes, targets, params, config, train, rng):
    """Label cross-entropy from ``enc``: the decoder is fed ``dec_ids``
    (B, n), and position i scores only the tokens ``classes[i]`` against
    ``targets`` (B, n), indices into them. The logits are ``token_logits``
    over the n lists' tokens side by side, each position's other columns
    hidden in one cross-entropy: per sample the positions' sum, averaged
    over the batch."""
    h = decoder_states(dec_ids, enc, params, config, train=train, rng=rng)
    cols = np.concatenate(classes)
    logits = token_logits(h, params, cols)
    start = np.cumsum([0] + [len(c) for c in classes])
    own = (start[:-1, None] <= np.arange(len(cols))) & (np.arange(len(cols)) < start[1:, None])
    picked = (np.asarray(targets) + start[:-1]).reshape(-1)
    ce = ad.softmax_cross_entropy(logits, picked, hidden=np.tile(~own, (len(dec_ids), 1)))
    return ad.scale(ce, len(classes))


def loss_spp(enc, polarities, params, config, vocab, train=False, rng=None):
    """First-position polarity cross-entropy from ``enc``, the clean
    encoding of a batch with one Polarity per sample: the decoder is fed
    <bos> alone, and scores only the three polarity tokens."""
    _check_batch(enc, polarities, "loss_spp")
    return _label_head(enc, np.full((len(polarities), 1), vocab.bos_id), [polarity_token_ids(vocab)],
                       [[POLARITY_ORDER.index(p)] for p in polarities], params, config, train, rng)


# ---------------------------------------------------------------------------
# contrastive pull


def loss_ccl(pooled, labels):
    """Sum over samples j of (same-label distance mass) / (total distance
    mass), one ``ad.pair_contrast`` node. Pairs at exactly zero distance
    contribute nothing and are treated as constants, which matches the limit
    and keeps the distance differentiable; a sample with no same-label
    partner at nonzero distance adds 0.

    ``pooled`` is a sequence of row blocks, (rows, d), or (d,) for one row,
    stacked once, with one label per row."""
    parts = [v if v.data.ndim == 2 else ad.reshape(v, (1, v.shape[0])) for v in pooled]
    b = sum(p.shape[0] for p in parts)
    if b != len(labels) or b == 0:
        raise ContractError(f"loss_ccl: {b} vectors and {len(labels)} labels")
    key = np.array([lab.value if isinstance(lab, Polarity) else str(lab) for lab in labels])
    x = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
    return ad.pair_contrast(x, key[:, None] == key)


# ---------------------------------------------------------------------------
# centroids and pseudo labels


def build_centroids(vectors, own, gold):
    """Per-task centroids from a frozen snapshot of ``vectors`` (N, d): row
    i belongs to task column ``own[i]`` with label index ``gold[i]`` in that
    task's label table. Returns one (C_t, d) ``bias.label_centroids`` matrix
    per column, row k the centroid of label k; every column and every label
    of its table must hold a row."""
    x, own, gold = np.asarray(vectors), np.asarray(own), np.asarray(gold)
    if not len(own) or not len(x) == len(own) == len(gold):
        raise ContractError(f"build_centroids: {len(x)} rows, {len(own)} tasks, {len(gold)} golds")
    out = []
    for t in range(own.max() + 1):
        labels, centroids = label_centroids(gold[own == t], x[own == t])
        if not np.array_equal(labels, np.arange(len(labels))):
            raise ContractError(f"build_centroids: task column {t} has no rows for some labels")
        out.append(centroids)
    return out


def assign_pseudo_labels(vectors, centroids, own, gold):
    """The (N, T) int64 pseudo-label matrix for ``vectors`` (N, d) and
    ``build_centroids``' T matrices: entry (i, t) is the index of row i's
    nearest centroid of task t, except that row i's own task ``own[i]``
    keeps its gold index ``gold[i]``."""
    own = np.asarray(own)
    if not len(vectors) == len(own) == len(gold) or own.max(initial=-1) >= len(centroids):
        raise ContractError(f"assign_pseudo_labels: {len(own)} tasks for {len(centroids)} columns")
    pseudo = np.stack([nearest_labels(vectors, c) for c in centroids], axis=1).astype(np.int64)
    pseudo[np.arange(len(own)), own] = gold
    return pseudo


# ---------------------------------------------------------------------------
# cross-task label prediction


def label_token_id(label, vocab):
    """Representative token for restricted classification: the final piece of
    the label's tokenization. Final pieces must be distinct within a task."""
    ids = tokenize(str(label), vocab)
    if not ids:
        raise VocabularyError(f"label {label!r} tokenizes to nothing")
    return ids[-1]


def label_token_ids(labels, vocab):
    """``loss_cep``'s classes: for each task of the label table ``labels``
    (task -> its labels in lexicographic order, tasks in TASK_ORDER), the
    labels' representative tokens. Two labels of one task sharing a token
    is a VocabularyError."""
    out = {}
    for task in labels:
        out[task] = [label_token_id(lab, vocab) for lab in labels[task]]
        if len(set(out[task])) != len(out[task]):
            raise VocabularyError(f"labels of task {task.value!r} do not have distinct "
                                  f"representative tokens: {labels[task]}")
    return out


def loss_cep(enc, targets, params, config, vocab, label_ids, train=False, rng=None):
    """Cross-task prediction from ``enc``, the corrupted encoding of a batch,
    against ``targets`` (B, T): entry (b, i) is sample b's label index for
    the i-th task of ``label_ids`` (task -> ``label_token_ids``' classes, in
    TASK_ORDER). The decoder is fed those tasks' tokens; position i
    classifies over task i's label tokens. Per sample the sum of the tasks'
    cross-entropies, averaged over the batch."""
    targets, tasks = np.asarray(targets), list(label_ids)
    if not tasks or targets.shape != (len(enc.offsets) - 1, len(tasks)):
        raise ContractError(f"loss_cep: targets {targets.shape} for a batch and {len(tasks)} tasks")
    if (targets < 0).any() or (targets >= [len(ids) for ids in label_ids.values()]).any():
        raise ContractError("loss_cep: a target lies outside its task's label table")
    dec_ids = np.array([[vocab.task_id(t) for t in tasks]] * len(targets))
    return _label_head(enc, dec_ids, list(label_ids.values()), targets, params, config,
                       train, rng)


# ---------------------------------------------------------------------------
# stage compositions


def stage1_loss(batch, params, config, vocab, weights=(1.0, 1.0, 1.0), train=False, rng=None):
    """Reconstruction on a corrupted pass, polarity + contrastive on a clean
    one, over combined two-query records. Returns (LossReport, total tensor)."""
    prompts = [e.prompt for e in batch]
    masked = encode_batch(prompts, params, config, vocab, mask_plans=[e.plan for e in batch],
                          train=train, rng=rng)
    mcm = loss_mcm(masked, [(e.prompt, e.plan) for e in batch], params)
    clean = encode_batch(prompts, params, config, vocab, train=train, rng=rng)
    polarities = [e.polarity for e in batch]
    spp = loss_spp(clean, polarities, params, config, vocab, train=train, rng=rng)
    ccl = loss_ccl([clean.pooled], polarities)
    total = ad.add(ad.add(ad.scale(mcm, weights[0]), ad.scale(spp, weights[1])),
                   ad.scale(ccl, weights[2]))
    report = LossReport(mcm=mcm.item(), spp=spp.item(), ccl=ccl.item(), cep=0.0, total=total.item())
    return report, total


def stage2_loss(batch, params, config, vocab, label_ids, weights=(1.0, 1.0), train=False,
                rng=None):
    """Reconstruction + cross-task prediction on original records, sharing
    one corrupted pass. Returns (LossReport, total tensor). ``label_ids``
    is ``loss_cep``'s per-task classes."""
    if not label_ids:
        raise ContractError("stage2_loss: no label table")
    enc = encode_batch([e.prompt for e in batch], params, config, vocab,
                       mask_plans=[e.plan for e in batch], train=train, rng=rng)
    mcm = loss_mcm(enc, [(e.prompt, e.plan) for e in batch], params)
    cep = loss_cep(enc, [e.pseudo for e in batch], params, config, vocab, label_ids,
                   train=train, rng=rng)
    total = ad.add(ad.scale(mcm, weights[0]), ad.scale(cep, weights[1]))
    report = LossReport(mcm=mcm.item(), spp=0.0, ccl=0.0, cep=cep.item(), total=total.item())
    return report, total


def generation_loss(batch, params, config, vocab, train=False, rng=None):
    """Teacher-forced answer generation: per sample the summed cross-entropy
    of the gold label tokens plus the end token, averaged over the batch.
    ``batch`` is a list of (prompt, gold token ids). The decoder runs once
    over <bos> + gold, right-padded to the longest; the causal mask keeps
    every real position blind to the pads after it."""
    if any(not gold for _, gold in batch):
        raise ContractError("generation_loss: empty gold sequence")
    enc = encode_batch([ps for ps, _ in batch], params, config, vocab, train=train, rng=rng)
    n = 1 + max(len(gold) for _, gold in batch)
    dec_in = np.full((len(batch), n), vocab.pad_id)
    rows, targets = [], []
    for i, (_, gold) in enumerate(batch):
        dec_in[i, :len(gold) + 1] = [vocab.bos_id, *gold]
        rows.extend(range(i * n, i * n + len(gold) + 1))
        targets.extend([*gold, vocab.eos_id])
    h = decoder_states(dec_in, enc, params, config, train=train, rng=rng)
    ce = ad.softmax_cross_entropy(token_logits(ad.embedding(h, rows), params), targets)
    return ad.scale(ce, len(rows) / len(batch))
