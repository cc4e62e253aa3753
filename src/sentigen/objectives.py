"""Pre-training objectives and their stage compositions.

Four losses over unified prompts:

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

from . import autodiff as ad
from .bias import label_centroids, nearest_labels
from .data import Polarity, TASK_ORDER
from .errors import ContractError, VocabularyError
from .model import decoder_states, encode, token_logits
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


def _batch_mean(terms, batch_size):
    """Sum of per-sample loss terms, added left to right, over the batch size."""
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / batch_size)


# ---------------------------------------------------------------------------
# reconstruction


def loss_mcm(batch, params, config, vocab, train=False, rng=None):
    """Masked-token reconstruction. ``batch`` is a list of (prompt, plan)."""
    if not batch:
        raise ContractError("loss_mcm: empty batch")
    terms = []
    for ps, plan in batch:
        original = flatten_prompt(ps, vocab)
        positions = list(plan.masked_token_positions)
        enc = encode(ps, params, config, vocab, mask_plan=plan, train=train, rng=rng)
        if not positions:
            continue
        hidden = ad.concat_rows([ad.slice_rows(enc.states, p, p + 1) for p in positions]) \
            if len(positions) > 1 else ad.slice_rows(enc.states, positions[0], positions[0] + 1)
        logits = token_logits(hidden, params)
        targets = [original[p] for p in positions]
        ce = ad.softmax_cross_entropy(logits, targets)
        terms.append(ad.scale(ce, float(len(positions))))  # sum over masked tokens
    if not terms:
        return ad.constant(0.0)
    return _batch_mean(terms, len(batch))


# ---------------------------------------------------------------------------
# polarity prediction


def _spp_term(enc, polarity, params, config, vocab, train=False, rng=None):
    h = decoder_states([vocab.bos_id], enc, params, config, train=train, rng=rng)
    logits = token_logits(h, params)
    restricted = ad.gather_cols(logits, list(polarity_token_ids(vocab)))
    target = POLARITY_ORDER.index(polarity)
    return ad.softmax_cross_entropy(restricted, [target])


def loss_spp(batch, params, config, vocab, train=False, rng=None):
    """First-position polarity cross-entropy on the uncorrupted input.
    ``batch`` is a list of (prompt, Polarity)."""
    if not batch:
        raise ContractError("loss_spp: empty batch")
    terms = []
    for ps, polarity in batch:
        enc = encode(ps, params, config, vocab, mask_plan=None, train=train, rng=rng)
        terms.append(_spp_term(enc, polarity, params, config, vocab, train=train, rng=rng))
    return _batch_mean(terms, len(batch))


# ---------------------------------------------------------------------------
# contrastive pull


def loss_ccl(pooled, labels):
    """Sum over samples j of (same-label distance mass) / (total distance
    mass). Pairs at exactly zero distance contribute nothing and are treated
    as constants, which matches the limit and keeps sqrt differentiable."""
    b = len(pooled)
    if b != len(labels):
        raise ContractError(f"loss_ccl: {b} vectors but {len(labels)} labels")
    if b == 0:
        raise ContractError("loss_ccl: empty batch")
    key = [lab.value if isinstance(lab, Polarity) else str(lab) for lab in labels]

    dist = {}
    for j in range(b):
        for k in range(j + 1, b):
            diff = ad.sub(pooled[j], pooled[k])
            sq = ad.sum_all(ad.mul(diff, diff))
            if sq.item() > 0.0:
                dist[(j, k)] = ad.sqrt(sq)

    total = ad.constant(0.0)
    for j in range(b):
        numer = None
        denom = None
        for k in range(b):
            if k == j:
                continue
            pair = (j, k) if j < k else (k, j)
            d = dist.get(pair)
            if d is None:
                continue
            denom = d if denom is None else ad.add(denom, d)
            if key[j] == key[k]:
                numer = d if numer is None else ad.add(numer, d)
        if denom is None or numer is None:
            continue  # no distance mass or no same-label partner: term is 0
        total = ad.add(total, ad.div(numer, denom))
    return total


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


def loss_cep(batch, params, config, vocab, index, train=False, rng=None):
    """Cross-task prediction on the corrupted stream. ``batch`` is a list of
    (prompt, plan, PseudoLabelSet). The decoder is fed the four task tokens;
    position i classifies over task i's label vocabulary."""
    if not batch:
        raise ContractError("loss_cep: empty batch")
    tasks = [t for t in TASK_ORDER if t in index]
    if not tasks:
        raise ContractError("loss_cep: empty centroid index")
    per_task = {t: _task_label_ids(index, t, vocab) for t in tasks}
    dec_ids = [vocab.task_id(t) for t in tasks]

    terms = []
    for ps, plan, pseudo in batch:
        enc = encode(ps, params, config, vocab, mask_plan=plan, train=train, rng=rng)
        h = decoder_states(dec_ids, enc, params, config, train=train, rng=rng)
        logits = token_logits(h, params)
        sample = None
        for i, task in enumerate(tasks):
            labels, ids = per_task[task]
            want = pseudo.label_for(task)
            if want not in labels:
                raise ContractError(
                    f"pseudo label {want!r} for task {task.value!r} is outside the centroid labels")
            row = ad.gather_cols(ad.slice_rows(logits, i, i + 1), ids)
            ce = ad.softmax_cross_entropy(row, [labels.index(want)])
            sample = ce if sample is None else ad.add(sample, ce)
        terms.append(sample)
    return _batch_mean(terms, len(batch))


# ---------------------------------------------------------------------------
# stage compositions


def stage1_loss(batch, params, config, vocab, weights=(1.0, 1.0, 1.0), train=False, rng=None):
    """Reconstruction + polarity + contrastive on combined two-query records.
    Returns (LossReport, total tensor)."""
    if not batch:
        raise ContractError("stage1_loss: empty batch")
    mcm = loss_mcm([(e.prompt, e.plan) for e in batch], params, config, vocab, train=train, rng=rng)
    encs = [encode(e.prompt, params, config, vocab, mask_plan=None, train=train, rng=rng) for e in batch]
    spp = _batch_mean([_spp_term(enc, e.polarity, params, config, vocab, train=train, rng=rng)
                       for enc, e in zip(encs, batch)], len(batch))
    ccl = loss_ccl([enc.pooled for enc in encs], [e.polarity for e in batch])
    total = ad.add(ad.add(ad.scale(mcm, weights[0]), ad.scale(spp, weights[1])),
                   ad.scale(ccl, weights[2]))
    report = LossReport(mcm=mcm.item(), spp=spp.item(), ccl=ccl.item(), cep=0.0, total=total.item())
    return report, total


def stage2_loss(batch, params, config, vocab, index, weights=(1.0, 1.0), train=False, rng=None):
    """Reconstruction + cross-task prediction on original records.
    Returns (LossReport, total tensor). Requires a centroid index."""
    if index is None:
        raise ContractError("stage2_loss: centroid index has not been built")
    if not batch:
        raise ContractError("stage2_loss: empty batch")
    mcm = loss_mcm([(e.prompt, e.plan) for e in batch], params, config, vocab, train=train, rng=rng)
    cep = loss_cep([(e.prompt, e.plan, e.pseudo) for e in batch], params, config, vocab, index,
                   train=train, rng=rng)
    total = ad.add(ad.scale(mcm, weights[0]), ad.scale(cep, weights[1]))
    report = LossReport(mcm=mcm.item(), spp=0.0, ccl=0.0, cep=cep.item(), total=total.item())
    return report, total


def generation_loss(batch, params, config, vocab, train=False, rng=None):
    """Teacher-forced answer generation: per sample the summed cross-entropy
    of the gold label tokens plus the end token, averaged over the batch.
    ``batch`` is a list of (prompt, gold token ids)."""
    if not batch:
        raise ContractError("generation_loss: empty batch")
    terms = []
    for ps, gold in batch:
        if not gold:
            raise ContractError("generation_loss: empty gold sequence")
        enc = encode(ps, params, config, vocab, mask_plan=None, train=train, rng=rng)
        dec_in = [vocab.bos_id] + list(gold)
        targets = list(gold) + [vocab.eos_id]
        h = decoder_states(dec_in, enc, params, config, train=train, rng=rng)
        logits = token_logits(h, params)
        ce = ad.softmax_cross_entropy(logits, targets)
        terms.append(ad.scale(ce, float(len(targets))))
    return _batch_mean(terms, len(batch))
