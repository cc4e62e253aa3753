"""Pre-training objectives and their stage compositions.

Every loss is a head on one padded-batch encoding from
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
  generated position against the sample's coarse polarity, restricted to the
  three polarity tokens.
* polarity-contrastive pull (``loss_ccl``): for each sample, the fraction of
  its total pairwise distance mass spent on same-polarity partners.
* cross-task label prediction (``loss_cep``): four cross-entropies, one per
  task family, each over that task's label vocabulary at a dedicated decoder
  position, targeting nearest-centroid pseudo labels (gold for the sample's
  own task).

Stage one totals reconstruction + polarity + contrastive; stage two totals
reconstruction + cross-task prediction. Stage two's centroids and pseudo
labels are computed by ``bias.label_centroids`` and ``bias.nearest_labels``,
the kernel the dataset-bias cross-annotation also uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bias import label_centroids, nearest_labels
from .data import Polarity, TASK_ORDER
from .errors import ContractError, VocabularyError
# ``encode`` is no longer called here; it stays a module global because the
# benchmark's tracer (benchmarks/tracing.py) patches it by name.
from .model import decoder_states, encode, encode_batch, token_logits  # noqa: F401
from .prompt import flatten_prompt, tokenize

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
    pseudo: object          # PseudoLabelSet


def polarity_token_ids(vocab):
    return tuple(vocab.id_of(p.value) for p in POLARITY_ORDER)


def _width(enc, samples, name):
    """``enc``'s padded stream length, once checked to encode ``samples``."""
    b, width = enc.keep.reshape(-1, enc.keep.shape[-1]).shape
    if not samples or len(samples) != b:
        raise ContractError(f"{name}: {len(samples)} samples for an encoded batch of {b}")
    return width


# ---------------------------------------------------------------------------
# reconstruction


def loss_mcm(enc, batch, params, vocab):
    """Masked-token reconstruction from ``enc``, the corrupted encoding of
    ``batch``, a list of (prompt, plan): one cross-entropy over the masked
    rows of all samples, scaled to a per-sample sum averaged over the batch."""
    width = _width(enc, batch, "loss_mcm")
    rows, targets = [], []
    for i, (ps, plan) in enumerate(batch):
        original = flatten_prompt(ps, vocab)
        rows.extend(i * width + p for p in plan.masked_token_positions)
        targets.extend(original[p] for p in plan.masked_token_positions)
    if not rows:
        return ad.constant(0.0)
    ce = ad.softmax_cross_entropy(token_logits(ad.embedding(enc.states, rows), params), targets)
    return ad.scale(ce, len(rows) / len(batch))


# ---------------------------------------------------------------------------
# polarity prediction


def loss_spp(enc, polarities, params, config, vocab, train=False, rng=None):
    """First-position polarity cross-entropy from ``enc``, the clean
    encoding of a batch with one Polarity per sample: the decoder is fed
    <bos> alone, and its logits are restricted to the three polarity tokens."""
    _width(enc, polarities, "loss_spp")
    bos = np.full((len(polarities), 1), vocab.bos_id)
    logits = token_logits(decoder_states(bos, enc, params, config, train=train, rng=rng), params)
    restricted = ad.gather_cols(logits, list(polarity_token_ids(vocab)))
    return ad.softmax_cross_entropy(restricted, [POLARITY_ORDER.index(p) for p in polarities])


# ---------------------------------------------------------------------------
# contrastive pull


def loss_ccl(pooled, labels):
    """Sum over samples j of (same-label distance mass) / (total distance
    mass). Pairs at exactly zero distance contribute nothing and are treated
    as constants, which matches the limit and keeps sqrt differentiable.

    ``pooled`` is a sequence of per-sample vectors, (d,) or (1, d), stacked
    once. The live pairs j < k are gathered as two row blocks, and each
    sample's masses are incidence-matrix products with the pair distances."""
    b = len(pooled)
    if b != len(labels) or b == 0:
        raise ContractError(f"loss_ccl: {b} vectors and {len(labels)} labels")
    key = np.array([lab.value if isinstance(lab, Polarity) else str(lab) for lab in labels])
    x = ad.concat_rows([v if v.data.ndim == 2 else ad.reshape(v, (1, v.shape[0])) for v in pooled])

    j, k = np.triu_indices(b, 1)
    diff = x.data[j] - x.data[k]
    live = (diff * diff).sum(axis=1) > 0.0
    j, k = j[live], k[live]
    same = key[j] == key[k]
    involved = np.zeros((b, len(j)))
    involved[j, np.arange(len(j))] = involved[k, np.arange(len(j))] = 1.0
    # samples with no same-label partner at nonzero distance add 0
    active = (involved * same).sum(axis=1) > 0.0
    if not active.any():
        return ad.constant(0.0)

    diff = ad.sub(ad.embedding(x, j), ad.embedding(x, k))
    dist = ad.sqrt(ad.matmul(ad.mul(diff, diff), ad.constant(np.ones((x.shape[1], 1)))))
    numer = ad.matmul(ad.constant(involved[active] * same), dist)
    denom = ad.matmul(ad.constant(involved[active]), dist)
    return ad.sum_all(ad.div(numer, denom))


# ---------------------------------------------------------------------------
# centroids and pseudo labels


@dataclass(frozen=True)
class CentroidIndex:
    """Per-task, per-label mean representations from a frozen snapshot.
    Labels are kept in lexicographic order; scalar labels are keyed by their
    one-decimal rendering."""

    by_task: dict

    def tasks(self):
        return tuple(t for t in TASK_ORDER if t in self.by_task)

    def labels(self, task):
        return tuple(lab for lab, _ in self.by_task[task])

    def __contains__(self, task):
        return task in self.by_task


def build_centroids(items):
    """``items``: iterable of (TaskType, label_key, vector). Returns a
    CentroidIndex holding ``bias.label_centroids`` of each task's items."""
    by_task = {}
    for task, label, vec in items:
        by_task.setdefault(task, []).append((label, vec))
    if not by_task:
        raise ContractError("build_centroids: no items")
    return CentroidIndex(by_task={t: tuple(label_centroids(group)) for t, group in by_task.items()})


@dataclass(frozen=True)
class PseudoLabelSet:
    """One label per task family; the record's own task carries its gold."""

    labels: dict

    def label_for(self, task):
        return self.labels[task]


def assign_pseudo_labels(vectors, index, own_tasks, gold_keys):
    """One PseudoLabelSet per row of ``vectors`` (N, d): the row's own task
    keeps its gold key, every other task gets its nearest centroid's label."""
    if not len(vectors) == len(own_tasks) == len(gold_keys):
        raise ContractError(f"assign_pseudo_labels: {len(vectors)} vectors, {len(own_tasks)} "
                            f"tasks and {len(gold_keys)} gold keys")
    for task in own_tasks:
        if task not in index:
            raise ContractError(f"centroid index has no entries for task {task.value!r}")
    nearest = {task: nearest_labels(vectors, index.by_task[task]) for task in index.tasks()}
    return [PseudoLabelSet(labels={task: str(gold) if task is own else nearest[task][i]
                                   for task in index.tasks()})
            for i, (own, gold) in enumerate(zip(own_tasks, gold_keys))]


# ---------------------------------------------------------------------------
# cross-task label prediction


def label_token_id(label, vocab):
    """Representative token for restricted classification: the final piece of
    the label's tokenization. Final pieces must be distinct within a task."""
    ids = tokenize(str(label), vocab)
    if not ids:
        raise VocabularyError(f"label {label!r} tokenizes to nothing")
    return ids[-1]


def _task_label_ids(index, task, vocab):
    labels = index.labels(task)
    ids = [label_token_id(lab, vocab) for lab in labels]
    if len(set(ids)) != len(ids):
        raise VocabularyError(
            f"labels of task {task.value!r} do not have distinct representative tokens: {labels}")
    return labels, ids


def loss_cep(enc, pseudos, params, config, vocab, index, train=False, rng=None):
    """Cross-task prediction from ``enc``, the corrupted encoding of a batch
    with one PseudoLabelSet per sample. The decoder is fed the task tokens;
    position i classifies over task i's label vocabulary. Per sample the sum
    of the tasks' cross-entropies, averaged over the batch."""
    _width(enc, pseudos, "loss_cep")
    tasks = index.tasks()
    if not tasks:
        raise ContractError("loss_cep: empty centroid index")
    dec_ids = np.array([[vocab.task_id(t) for t in tasks]] * len(pseudos))
    logits = token_logits(decoder_states(dec_ids, enc, params, config, train=train, rng=rng), params)
    total = None
    for i, task in enumerate(tasks):
        labels, ids = _task_label_ids(index, task, vocab)
        wanted = [pseudo.label_for(task) for pseudo in pseudos]
        stray = [want for want in wanted if want not in labels]
        if stray:
            raise ContractError(
                f"pseudo label {stray[0]!r} for task {task.value!r} is outside the centroid labels")
        rows = ad.embedding(logits, np.arange(len(pseudos)) * len(tasks) + i)
        ce = ad.softmax_cross_entropy(ad.gather_cols(rows, ids), [labels.index(w) for w in wanted])
        total = ce if total is None else ad.add(total, ce)
    return total


# ---------------------------------------------------------------------------
# stage compositions


def stage1_loss(batch, params, config, vocab, weights=(1.0, 1.0, 1.0), train=False, rng=None):
    """Reconstruction on a corrupted pass, polarity + contrastive on a clean
    one, over combined two-query records. Returns (LossReport, total tensor)."""
    prompts = [e.prompt for e in batch]
    masked = encode_batch(prompts, params, config, vocab, mask_plans=[e.plan for e in batch],
                          train=train, rng=rng)
    mcm = loss_mcm(masked, [(e.prompt, e.plan) for e in batch], params, vocab)
    clean = encode_batch(prompts, params, config, vocab, train=train, rng=rng)
    polarities = [e.polarity for e in batch]
    spp = loss_spp(clean, polarities, params, config, vocab, train=train, rng=rng)
    ccl = loss_ccl([ad.slice_rows(clean.pooled, i, i + 1) for i in range(len(batch))], polarities)
    total = ad.add(ad.add(ad.scale(mcm, weights[0]), ad.scale(spp, weights[1])),
                   ad.scale(ccl, weights[2]))
    report = LossReport(mcm=mcm.item(), spp=spp.item(), ccl=ccl.item(), cep=0.0, total=total.item())
    return report, total


def stage2_loss(batch, params, config, vocab, index, weights=(1.0, 1.0), train=False, rng=None):
    """Reconstruction + cross-task prediction on original records, sharing
    one corrupted pass. Returns (LossReport, total tensor). Requires a
    centroid index."""
    if index is None:
        raise ContractError("stage2_loss: centroid index has not been built")
    enc = encode_batch([e.prompt for e in batch], params, config, vocab,
                       mask_plans=[e.plan for e in batch], train=train, rng=rng)
    mcm = loss_mcm(enc, [(e.prompt, e.plan) for e in batch], params, vocab)
    cep = loss_cep(enc, [e.pseudo for e in batch], params, config, vocab, index,
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
