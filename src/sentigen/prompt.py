"""Unified prompt construction and the shared vocabulary.

Every record is rendered as three token spans: Z (task, dataset and optional
speaker marker tokens), Y (the serialized answer set), and X (conversation
context followed by the query text). Modal feature segments ride alongside the
token spans with a modality tag each; they are attached to the encoder stream
after the text.

The tokenizer splits on whitespace, then into alphabetic runs, decimal
numbers, and single punctuation marks. Word-internal continuation pieces are
stored with a ``##`` prefix so detokenization can rejoin them without spaces.
Pieces missing from the vocabulary fall back to single characters, so any
printable-ASCII string round-trips; characters outside that inventory map to
the unknown token.
"""
from __future__ import annotations

import functools
import re
import string
from dataclasses import dataclass, field

import numpy as np

from .data import POOL_DATASET_ID, TaskType, TASK_ORDER, render_scalar_label
from .errors import ConfigError, ContractError, DecodeError, VocabularyError

PAD, BOS, EOS, UNK, MASK, SEP = "<pad>", "<bos>", "<eos>", "<unk>", "<mask>", "<sep>"
ANS_OPEN, ANS_CLOSE = "<ans>", "</ans>"
_CORE_SPECIALS = (PAD, BOS, EOS, UNK, MASK, SEP, ANS_OPEN, ANS_CLOSE)

LABEL_SEPARATOR = "|"

_PIECE_RE = re.compile(r"[A-Za-z]+|[0-9]+(?:\.[0-9]+)?|[^A-Za-z0-9\s]")
_SPEAKER_NUM_RE = re.compile(r"([0-9]+)\s*$")
_SIGNED_DECIMAL_RE = re.compile(r"[-+]?[0-9]+(?:\.[0-9]+)?")

_PRINTABLE = tuple(ch for ch in string.printable if not ch.isspace())


def task_token(task):
    return f"<task_{task.value}>"


def dataset_token(dataset_id):
    return f"<data:{dataset_id}>"


def speaker_token(k):
    return f"<speaker_{k}>"


def word_pieces(word):
    """Split one whitespace-delimited word into vocabulary pieces. The first
    piece keeps its surface; the rest carry the ## continuation prefix."""
    pieces = _PIECE_RE.findall(word)
    return [p if i == 0 else "##" + p for i, p in enumerate(pieces)]


def text_pieces(text):
    return [piece for word in text.split() for piece in word_pieces(word)]


class Vocab:
    """Token <-> id table. Special tokens come first in a fixed order: core
    markers, task tokens, ``num_datasets`` dataset tokens (registry order),
    then ``num_speakers`` speaker tokens and no further marker; any other
    layout is a VocabularyError. The id of a token is its index in
    ``tokens``; checkpoints carry the token list in their metadata."""

    def __init__(self, tokens, num_datasets, num_speakers):
        self.tokens = list(tokens)
        self.num_datasets = int(num_datasets)
        self.num_speakers = int(num_speakers)
        self._index = {}
        self._answer_sets = {}  # answer_set_tokens' ids, per AnswerSet
        for i, tok in enumerate(self.tokens):
            if tok in self._index:
                raise VocabularyError(f"duplicate token {tok!r}")
            self._index[tok] = i
        self.n_special = len(_CORE_SPECIALS) + len(TASK_ORDER) + self.num_datasets + self.num_speakers
        expected = list(_CORE_SPECIALS) + [task_token(t) for t in TASK_ORDER]
        if self.tokens[:len(expected)] != expected:
            raise VocabularyError("vocabulary does not start with the fixed special-token block")
        # the dataset tokens, in the order of the registry the vocabulary was built from
        self.dataset_tokens = self.tokens[len(expected):len(expected) + self.num_datasets]
        speakers = self.tokens[len(expected) + self.num_datasets:self.n_special]
        after = self.tokens[self.n_special:self.n_special + 1]
        if (len(self.dataset_tokens) != self.num_datasets
                or not all(t.startswith("<data:") for t in self.dataset_tokens)
                or speakers != [speaker_token(k) for k in range(self.num_speakers)]
                or any(len(t) > 1 and t.startswith("<") and t.endswith(">") for t in after)):
            raise VocabularyError(f"vocabulary does not follow its fixed block with "
                                  f"{self.num_datasets} dataset tokens, then {self.num_speakers} "
                                  "speaker tokens and no further marker")

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise VocabularyError(f"token {token!r} is not in the vocabulary") from None

    def __contains__(self, token):
        return token in self._index

    def surface(self, token_id):
        if not (0 <= token_id < len(self.tokens)):
            raise VocabularyError(f"token id {token_id} out of range")
        return self.tokens[token_id]

    # a core marker's id is its place in ``_CORE_SPECIALS``
    pad_id, bos_id, eos_id, unk_id, mask_id, sep_id, ans_open_id, ans_close_id = \
        range(len(_CORE_SPECIALS))

    def task_id(self, task):
        return self.id_of(task_token(task))

    def dataset_id_token(self, dataset_id):
        return self.id_of(dataset_token(dataset_id))

    def speaker_id_token(self, k):
        if not (0 <= k < self.num_speakers):
            raise VocabularyError(
                f"speaker index {k} outside the reserved range [0, {self.num_speakers})")
        return self.id_of(speaker_token(k))


def _scalar_literal_pieces():
    """Pieces for every one-decimal literal in [-3.0, 3.0] so scalar labels
    are always expressible."""
    out = []
    for tenth in range(-30, 31):
        for piece in text_pieces(render_scalar_label(tenth / 10.0)):
            out.append(piece)
    return out


def build_vocab(records, registry, num_speakers=16):
    """Assemble the vocabulary: fixed specials, the printable-ASCII character
    inventory (word-initial and continuation forms), forced label pieces, then
    corpus pieces ordered by frequency."""
    tokens = list(_CORE_SPECIALS)
    tokens += [task_token(t) for t in TASK_ORDER]
    tokens += [dataset_token(d) for d in registry.dataset_ids]
    tokens += [speaker_token(k) for k in range(num_speakers)]

    forced = []
    for name in ("positive", "negative", "neutral"):
        forced.extend(text_pieces(name))
    any_scalar = False
    for dataset_id in registry.dataset_ids:
        spec = registry.spec(dataset_id)
        if spec.answer.scalar:
            any_scalar = True
        else:
            for label in spec.answer.labels:
                forced.extend(text_pieces(label))
    if any_scalar:
        forced.extend(_scalar_literal_pieces())

    counts = {}
    for record in records:
        texts = [record.text]
        if record.context:
            texts.extend(t for _, t in record.context)
        for text in texts:
            for piece in text_pieces(text):
                counts[piece] = counts.get(piece, 0) + 1

    seen = set(tokens)
    for piece in (*_PRINTABLE, *("##" + ch for ch in _PRINTABLE), *forced,
                  *sorted(counts, key=lambda p: (-counts[p], p))):
        if piece not in seen:
            tokens.append(piece)
            seen.add(piece)
    return Vocab(tokens, num_datasets=len(registry), num_speakers=num_speakers)


def tokenize(text, vocab):
    """Text -> token ids. Unknown pieces fall back to characters; unknown
    characters map to the unknown token. Never produces special ids."""
    ids = []
    for piece in text_pieces(text):
        if piece in vocab:
            ids.append(vocab.id_of(piece))
            continue
        cont = piece.startswith("##")
        chars = piece[2:] if cont else piece
        for i, ch in enumerate(chars):
            form = ch if (i == 0 and not cont) else "##" + ch
            ids.append(vocab.id_of(form) if form in vocab else vocab.unk_id)
    return ids


def detokenize(ids, vocab):
    """Token ids -> text. Continuation pieces join without a space."""
    out = []
    for token_id in ids:
        tok = vocab.surface(token_id)
        if tok.startswith("##") and len(tok) > 2:
            if out:
                out[-1] += tok[2:]
            else:
                out.append(tok[2:])
        else:
            out.append(tok)
    return " ".join(out)


@dataclass(frozen=True)
class ModalSegment:
    kind: str  # "acoustic" | "visual"
    features: np.ndarray


@dataclass(frozen=True)
class PromptSequence:
    """Tokenized prompt with its span structure intact.

    ``x_context`` holds one token list per context utterance (leading speaker
    token included); ``x_tokens`` is the query text. Two fields derive from
    the spans when the prompt is made, so the spans stay their only source:
    ``ids`` is the encoder's token stream, Z, then Y, then the context
    utterances, a separator, and the query; ``maskable`` is the positions in
    ``ids`` that masked reconstruction may touch, every context word after
    its speaker token and every query word but a ``<sep>``.
    """

    z_tokens: tuple
    y_tokens: tuple
    x_context: tuple
    x_tokens: tuple
    modal_segments: tuple
    dataset_index: int
    truncated: bool = False
    ids: tuple = field(init=False, repr=False)
    maskable: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ids = [*self.z_tokens, *self.y_tokens]
        maskable = []
        for utt in self.x_context:
            maskable += range(len(ids) + 1, len(ids) + len(utt))
            ids += utt
        if self.x_context:
            ids.append(Vocab.sep_id)
        maskable += range(len(ids), len(ids) + len(self.x_tokens))
        ids += self.x_tokens
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "maskable", tuple(p for p in maskable if ids[p] != Vocab.sep_id))

    @property
    def frame_count(self):
        return sum(seg.features.shape[0] for seg in self.modal_segments)


def speaker_index(speaker_id):
    """Speaker strings carry their index as trailing digits ("spk3" -> 3)."""
    m = _SPEAKER_NUM_RE.search(speaker_id or "")
    if not m:
        raise VocabularyError(
            f"speaker id {speaker_id!r} has no trailing index; expected something like 'spk0'")
    return int(m.group(1))


def answer_set_tokens(answer, vocab):
    """Serialize an answer set as "<ans> label | label | ... </ans>" ids, a
    tuple tokenized once per vocabulary: every prompt of a dataset, and
    every stage-one pair, reads the same ids."""
    ids = vocab._answer_sets.get(answer)
    if ids is None:
        labels = ([render_scalar_label(float(v)) for v in range(-3, 4)] if answer.scalar
                  else answer.labels)
        ids = [vocab.ans_open_id]
        for i, label in enumerate(labels):
            if i:
                ids.extend(tokenize(LABEL_SEPARATOR, vocab))
            ids.extend(tokenize(label, vocab))
        ids = vocab._answer_sets[answer] = tuple(ids + [vocab.ans_close_id])
    return ids


def build_prompt(record, vocab, registry, max_len):
    """Render a validated record into a PromptSequence.

    The token budget is ``max_len`` minus the modal frame count; when the
    spans overflow it, the oldest context utterances are dropped first, then
    the query tail, and the result is flagged as truncated.
    """
    spec = registry.spec(record.dataset_id)
    if spec.task_type is not record.task_type:
        raise ConfigError(
            f"record task {record.task_type.value!r} conflicts with registry entry "
            f"{record.dataset_id!r} ({spec.task_type.value!r})")

    z = [vocab.task_id(record.task_type), vocab.dataset_id_token(record.dataset_id)]
    if record.task_type is TaskType.ERC:
        z.append(vocab.speaker_id_token(speaker_index(record.speaker_id)))

    context = []
    if record.task_type is TaskType.ERC and record.context:
        for spk, text in record.context:
            utt = [vocab.speaker_id_token(speaker_index(spk))]
            utt.extend(tokenize(text, vocab))
            context.append(utt)

    segments = []
    if record.audio is not None:
        segments.append(ModalSegment(kind="acoustic", features=np.asarray(record.audio, dtype=np.float32)))
    if record.image is not None:
        segments.append(ModalSegment(kind="visual", features=np.asarray(record.image, dtype=np.float32)))
    return _fit(z, answer_set_tokens(spec.answer, vocab), context, tokenize(record.text, vocab),
                segments, registry.index(record.dataset_id), max_len)


def combine_queries(a, b, vocab, registry, max_len):
    """Join two prompts into one stage-one pair prompt of the reserved pool
    dataset: its markers and answer set, the query ``a.x_tokens + [<sep>] +
    b.x_tokens`` with no context, and each modality's frames, ``a``'s first.
    The pair is budgeted like a record (``_fit``) and is truncated when
    either prompt was or its own budget cuts it; a prompt whose query was
    cut brings that cut query. Frames of one modality with different widths
    are a ContractError."""
    spec = registry.spec(POOL_DATASET_ID)
    if spec.task_type is not TaskType.CA:
        raise ConfigError(f"registry entry {POOL_DATASET_ID!r} must be a "
                          f"{TaskType.CA.value!r} dataset, not {spec.task_type.value!r}")
    segments = []
    for kind in ("acoustic", "visual"):
        parts = [seg.features for ps in (a, b) for seg in ps.modal_segments if seg.kind == kind]
        if len({f.shape[1] for f in parts}) > 1:
            raise ContractError(f"cannot combine prompts: {kind} dimensions differ "
                                f"({parts[0].shape[1]} vs {parts[1].shape[1]})")
        if parts:
            features = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
            segments.append(ModalSegment(kind=kind, features=features))
    z = [vocab.task_id(TaskType.CA), vocab.dataset_id_token(POOL_DATASET_ID)]
    return _fit(z, answer_set_tokens(spec.answer, vocab), [],
                list(a.x_tokens) + [vocab.sep_id] + list(b.x_tokens), segments,
                registry.index(POOL_DATASET_ID), max_len, a.truncated or b.truncated)


def _fit(z, y, context, x, segments, dataset_index, max_len, truncated=False):
    """The PromptSequence of these spans and frames within ``max_len``: the
    token budget is ``max_len`` minus the frame count, and an overflow drops
    the oldest context utterances first, then the query tail, and sets
    ``truncated``. Markers that leave no room for a token, or a query of no
    token, are a ContractError; a cut never empties a query, since the
    markers leave it at least one token."""
    frames = sum(seg.features.shape[0] for seg in segments)
    budget = max_len - frames
    fixed = len(z) + len(y)
    if budget <= fixed:
        raise ContractError(
            f"prompt cannot fit: {fixed} marker tokens plus {frames} modal frames exceed max length {max_len}")

    def total():
        n = fixed + len(x) + sum(len(u) for u in context)
        if context:
            n += 1
        return n

    while total() > budget and context:
        context.pop(0)  # oldest first
        truncated = True
    if total() > budget:
        room = budget - fixed
        x = x[:room]
        truncated = True
    if not x:
        raise ContractError("prompt has no query token")

    return PromptSequence(
        z_tokens=tuple(z),
        y_tokens=tuple(y),
        x_context=tuple(tuple(u) for u in context),
        x_tokens=tuple(x),
        modal_segments=tuple(segments),
        dataset_index=dataset_index,
        truncated=truncated,
    )


@functools.lru_cache(maxsize=4096)
def edit_distance(a, b):
    """Classic Levenshtein distance; plenty at label-string scale. Memoized:
    decoding compares the same few outputs with the same labels again and
    again."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@dataclass(frozen=True)
class DecodedLabel:
    value: object
    fallback: bool = False


def parse_scalar(text, lo=-3.0, hi=3.0):
    compact = re.sub(r"\s+", "", text)
    m = _SIGNED_DECIMAL_RE.search(compact)
    if not m:
        return None
    return min(max(float(m.group(0)), lo), hi)


def decode_label(generated_ids, answer, vocab):
    """Map generated token ids onto the answer set.

    Categorical answers match exactly, else by minimum edit distance (ties go
    to the earlier label). Scalar answers parse the first signed decimal and
    clamp it into range; unparseable output falls back to 0.0 with the
    fallback flag set. Empty generations are a decode error.
    """
    ids = [t for t in generated_ids if t not in (vocab.pad_id, vocab.bos_id, vocab.eos_id)]
    if not ids:
        raise DecodeError("nothing to decode: generation is empty")
    text = detokenize(ids, vocab)
    if answer.scalar:
        value = parse_scalar(text, answer.lo, answer.hi)
        if value is None:
            return DecodedLabel(value=0.0, fallback=True)
        return DecodedLabel(value=value, fallback=False)
    if text in answer.labels:
        return DecodedLabel(value=text, fallback=False)
    best = min(answer.labels, key=lambda lab: (edit_distance(text, lab), answer.labels.index(lab)))
    return DecodedLabel(value=best, fallback=True)
