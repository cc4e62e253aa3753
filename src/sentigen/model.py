"""Encoder-decoder over unified prompts.

The encoder consumes one stream per sample: token embeddings for the prompt
spans, projected acoustic/visual frames appended after the text, each position
carrying a modality-type embedding, a position embedding, and the dataset
embedding row for the record's dataset. A stream holds no pad token:
``_encode`` rejects one, so every position is real and is the one at its
index. Attention is bidirectional. The decoder is autoregressive with
cross-attention into the encoder states. Token rows come in and scores go
out through ``w_text`` and the token embedding table, tied: ``ad.embedding``'s
``proj``, and ``ad.token_loss`` and ``token_logits``, which share a forward.

The encoder runs on a batch of samples packed end to end. Tensors stay 2-D:
a batch of B streams is N = the summed stream lengths rows, sample after
sample, with ``offsets`` (B + 1 row bounds, the ``cu_seqlens`` layout)
marking where each sample starts. Every per-row op (input gather, the
frames' projections, each one ``ad.linear`` node, dropout, ``layer_norm``
with the residual add inside its node, the FFN) runs on those N rows only,
so no arithmetic goes to padding. Every attention block that records a
graph, self- or cross-attention, is one ``ad.attention`` node with its
projections inside, which pads the rows inside itself through their
bounds' ``ad.Segments``, keeps each sample's queries on its own keys, and
keeps its inputs and softmax weights, not the projected rows or the heads'
outputs, which its backward rebuilds. Each FFN is one ``ad.ffn`` node,
which keeps its input, not its (N, ffn) hidden rows. Cached decoding
projects keys and values apart (``_keys_values``) and attends over them
with ``ad.attend``. A batch's input rows are one
gather from one table of every sample's projected token rows (one node),
the projected acoustic and visual frames and the mask vectors (a row
each), so masking a token or a frame is a choice of row; the same node
adds each row's type, position and dataset embeddings. The decoder's rows,
projected token rows plus position rows in one node, are B samples of n
ids each: the packed layout with equal offsets. Its self-attention is
causal and its cross-attention reads the packed encoder rows through their
offsets. ``encode`` and ``generate`` on one prompt run the batch of one,
and return what the batch does for it: ``encode``'s ``pooled`` is (1, d).
Training and inference both run these batches: a training step's losses read
``encode_batch`` encodings, with one dropout mask per batched tensor;
inference uses ``pooled_vectors`` and ``generate_batch``. A pass drops
units exactly when it is handed a dropout stream.

Inference sizes the two phases apart. The encoder runs on ``_row_chunks``
slices, bounded by ``_ROW_BUDGET`` encoder rows padded to the slice's
longest stream, the size its padded attention buffers run fastest at.
Greedy decoding runs each step on many rows, so per-op overhead is paid
once for all of them: ``generate_batch`` cuts the prompts into groups of
``_DECODE_ROWS`` consecutive prompts, encodes each group in its own slices,
joins their packed outputs (``join_encodings``) and decodes the group, so
encodings are held for one group at a time, never for the whole corpus.

Training and inference share one forward code path. Inference runs it on
``freeze_params`` constants, which record no graph, and greedy decoding feeds
``decoder_states`` one token per row at a time through a ``DecoderCache``
instead of re-running the decoder over every prefix. A cache is made for
one encoding and lays out all its state then, in attention's padded
per-head layout: each decoder layer's cross-attention keys, split into
(B, heads, L, d / heads) with their key mask, and its (B, heads, capacity,
d / heads) self-attention buffers, into which a step writes its new
positions and of which attention reads those fed so far as a view, every
layer through the step's one ``ad.Segments``. A step lays out only what it
feeds and copies nothing held; training passes no cache, so its attention
lays out its own keys.

Checkpoints are written, synced, through ``data.write_file_atomic``, so a
failed save leaves the old checkpoint whole. A load checks the header and
its whole manifest against the file's size first, then reads each array
once into its own array, CRC as it reads: it holds one copy of the payload.
"""
from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .data import reading, write_file_atomic
from .errors import ConfigError, ContractError, ShapeError

CHECKPOINT_MAGIC = b"SGCK"
CHECKPOINT_VERSION = 3
_CHECKPOINT_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}  # by manifest name

_TYPE_INDEX = {"text": 0, "acoustic": 1, "visual": 2}


@dataclass
class ModelConfig:
    """Desk-scale defaults; the full-size counterpart would use 768/6/12."""

    model_dim: int = 64
    text_embed_dim: int = 64
    acoustic_dim: int = 64
    visual_dim: int = 64
    layers_enc: int = 2
    layers_dec: int = 2
    heads: int = 4
    ffn_dim: int = 256
    max_len: int = 128
    vocab_size: int = 0
    num_datasets: int = 0
    dropout_rate: float = 0.1

    def validate(self):
        for name in ("model_dim", "text_embed_dim", "acoustic_dim", "visual_dim", "ffn_dim",
                     "heads", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} {getattr(self, name)} must be at least 1")
        for name in ("layers_enc", "layers_dec"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} {getattr(self, name)} must be non-negative")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if self.vocab_size <= 0 or self.num_datasets <= 0:
            raise ConfigError("vocab_size and num_datasets must be set from the vocabulary and registry")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        return self

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return config_from_json(cls, obj, "model config")


# JSON types a config field of each annotated type accepts: a bool is no
# number, an int may stand for a float, and a list for a tuple
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "tuple": (list, tuple),
               "dict": (dict,), "int | None": (int, type(None))}


def config_from_json(cls, obj, section):
    """``cls(**obj)`` for a config dataclass read from JSON. A ``section``
    that is not an object, an unknown key, a value whose JSON type does not
    fit its field, or a NaN or infinity (JSON's ``NaN`` and ``Infinity``),
    alone or in a list, is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object")
    fields = cls.__dataclass_fields__
    extra = set(obj) - set(fields)
    if extra:
        raise ConfigError(f"unknown {section} keys {sorted(extra)}")
    for key, value in obj.items():
        if type(value) not in _JSON_TYPES[fields[key].type]:
            raise ConfigError(f"{section} field {key!r} must be {fields[key].type}, got {value!r}")
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"{section} field {key!r} must be finite, got {value!r}")
    return cls(**obj)


_INIT = {"normal": lambda rng, shape: rng.normal(0.0, 0.1, size=shape),
         "xavier": lambda rng, shape: rng.normal(0.0, float(np.sqrt(2.0 / sum(shape))), size=shape),
         "zeros": lambda rng, shape: np.zeros(shape),
         "ones": lambda rng, shape: np.ones(shape)}


def param_layout(config):
    """The model's parameters as an ordered ``(name, shape, init)`` table,
    ``init`` being one of ``_INIT``'s rules. Table order is the order of the
    optimizer's arena (``training.Adam``), one vector for the parameters and
    one for each moment, and the checkpoint layout."""
    config.validate()
    d, f = config.model_dim, config.ffn_dim
    attn = [(m, (d, d), "xavier") for m in ("wq", "wk", "wv", "wo")] + \
           [(b, (d,), "zeros") for b in ("bq", "bv", "bo")]
    ln = [("g", (d,), "ones"), ("b", (d,), "zeros")]
    ffn = [("w1", (d, f), "xavier"), ("b1", (f,), "zeros"),
           ("w2", (f, d), "xavier"), ("b2", (d,), "zeros")]
    blocks = []
    for i in range(config.layers_enc):
        blocks += [(f"enc{i}_attn", attn), (f"enc{i}_ln1", ln), (f"enc{i}_ffn", ffn),
                   (f"enc{i}_ln2", ln)]
    for i in range(config.layers_dec):
        blocks += [(f"dec{i}_self", attn), (f"dec{i}_ln1", ln), (f"dec{i}_cross", attn),
                   (f"dec{i}_ln2", ln), (f"dec{i}_ffn", ffn), (f"dec{i}_ln3", ln)]
    return [("tok_emb", (config.vocab_size, config.text_embed_dim), "normal"),
            ("w_text", (config.text_embed_dim, d), "xavier"),
            ("pos_emb", (config.max_len, d), "normal"),
            ("type_emb", (len(_TYPE_INDEX), d), "normal"),
            ("dataset_emb", (config.num_datasets, d), "normal"),
            ("proj_acoustic_w", (config.acoustic_dim, d), "xavier"),
            ("proj_acoustic_b", (d,), "zeros"),
            ("proj_visual_w", (config.visual_dim, d), "xavier"),
            ("proj_visual_b", (d,), "zeros"),
            ("mask_vec_acoustic", (d,), "normal"),
            ("mask_vec_visual", (d,), "normal")] + \
        [(f"{prefix}_{name}", shape, init) for prefix, part in blocks for name, shape, init in part]


def init_params(config, rng):
    """Fresh parameters drawn from ``rng`` in ``param_layout`` order."""
    return {name: ad.Tensor(_INIT[init](rng, shape), requires_grad=True, op="param")
            for name, shape, init in param_layout(config)}


def freeze_params(params):
    """Constant views of ``params`` sharing their arrays. Ops over them record
    no graph, which is how every inference pass runs."""
    return {name: ad.constant(t.data) for name, t in params.items()}


def _linear(params, prefix, x, w, b):
    return ad.linear(x, params[f"{prefix}_{w}"], params[f"{prefix}_{b}"])


def _keys_values(params, prefix, x_kv):
    """Key and value projections of ``x_kv`` for one attention block, as the
    arrays a ``DecoderCache`` holds: keys by ``wk`` alone, as in ``ad.attention``."""
    return x_kv.data @ params[f"{prefix}_wk"].data, _linear(params, prefix, x_kv, "wv", "bv").data


def _attention(params, prefix, x_q, x_kv, config, q_offsets, k_offsets, causal=False):
    """Multi-head attention of the packed rows ``x_q`` over ``x_kv``, each
    side bounded by its offsets, then the block's output projection, as
    one ``ad.attention`` node: it projects the queries from ``x_q`` and the
    keys and values from ``x_kv``, and keeps none of them, nor the heads'
    outputs. Self-attention passes its rows as both sides."""
    q, v, o = ((params[f"{prefix}_w{c}"], params[f"{prefix}_b{c}"]) for c in "qvo")
    return ad.attention(x_q, x_kv, q, params[f"{prefix}_wk"], v, o, config.heads, q_offsets,
                        k_offsets, causal)


def _cached_attention(params, prefix, x_q, layout, q_offsets, causal=False):
    """``_attention`` of ``x_q`` over keys and values a ``DecoderCache``
    holds in ``layout``, through ``ad.attend``: no graph."""
    q = _linear(params, prefix, x_q, "wq", "bq")
    mixed = ad.attend(q, layout, q_offsets, causal)
    return _linear(params, prefix, mixed, "wo", "bo")


def _ffn(params, prefix, x):
    return ad.ffn(x, *(params[f"{prefix}_{name}"] for name in ("w1", "b1", "w2", "b2")))


def _maybe_dropout(x, config, rng):
    """``x`` with units dropped when a pass is handed a dropout stream
    ``rng``; at rate 0, ``ad.dropout`` returns ``x`` and draws nothing."""
    return x if rng is None else ad.dropout(x, config.dropout_rate, rng)


@dataclass
class EncoderOutput:
    """Encoder states of a batch of B prompts, packed: sample i's stream is
    rows offsets[i]:offsets[i + 1] of ``states``, every row a real stream
    position, with no pad rows inside or between samples. ``pooled`` is
    each sample's mean row, one per sample, so one prompt's is (1, d)."""

    states: ad.Tensor      # (N, model_dim), N = offsets[-1], the summed stream lengths
    pooled: ad.Tensor      # (B, model_dim)
    offsets: np.ndarray    # int (B + 1,): where each sample's rows start, then N


# An encoder batch's input rows come from one table of blocks: 0 every
# sample's tokens, 1 acoustic and 2 visual frames (block = type id), 3 and 4
# the acoustic and visual mask vectors. A position takes the type id of the
# block it reads.
_BLOCK_TYPE = np.array([0, 1, 2, 1, 2])


def _encode(prompts, mask_plans, params, config, vocab, rng):
    """The encoder over a packed batch: states (N, d) and offsets (B + 1,),
    N being the summed stream lengths.

    Each sample's stream is its prompt tokens, then its modal frames, and
    every per-row op runs on the N stream rows alone; only attention sees
    the sample bounds. A masked token reads the mask id's embedding, a
    masked frame its modality's mask vector. The input rows are one
    ``ad.embedding`` node: a gather from the table of every block's rows,
    with each position's type, position and dataset embedding rows added
    in place, so no gathered block or partial sum outlives the node. A
    stream holding the pad token is a ContractError: no builder emits one,
    and every row counts as a real position.
    """
    tokens, frames = [], {"acoustic": [], "visual": []}
    src, rows = [], []  # the block, and the row in it, that each position reads
    lengths = []  # each sample's stream length
    for ps, plan in zip(prompts, mask_plans):
        ids = list(ps.ids)
        n_tok = len(ids)
        total = n_tok + ps.frame_count
        if total > config.max_len:
            raise ContractError(f"encoder stream of {total} positions exceeds max length {config.max_len}")
        if n_tok == 0:
            raise ContractError("cannot encode an empty prompt")
        masked_frames = {} if plan is None else plan.masked_modal_frames
        for pos in () if plan is None else plan.masked_token_positions:
            if not (0 <= pos < n_tok):
                raise IndexError(f"mask position {pos} outside the {n_tok}-token stream")
            ids[pos] = vocab.mask_id
        src += [0] * n_tok
        rows += range(len(tokens), len(tokens) + n_tok)
        tokens.extend(ids)
        for seg in ps.modal_segments:
            feats = np.asarray(seg.features, dtype=np.float64)
            w = params[f"proj_{seg.kind}_w"]
            if feats.shape[1] != w.shape[0]:
                raise ShapeError(
                    f"{seg.kind} features have dim {feats.shape[1]}, model expects {w.shape[0]}")
            n, hit = feats.shape[0], set(masked_frames.get(seg.kind, ()))
            if not hit <= set(range(n)):
                raise IndexError(f"masked {seg.kind} frame {min(hit - set(range(n)))} outside {n} frames")
            block, seen = _TYPE_INDEX[seg.kind], sum(len(f) for f in frames[seg.kind])
            src += [block + 2 if i in hit else block for i in range(n)]
            rows += [0 if i in hit else seen + i for i in range(n)]
            frames[seg.kind].append(feats)
        lengths.append(total)

    if vocab.pad_id in tokens:
        raise ContractError("an encoder stream holds the pad token")
    src, rows = np.array(src), np.array(rows)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    pos_ids = np.arange(len(src)) - np.repeat(offsets[:-1], lengths)

    # a block no position reads stays out, so its parameters get no gradient;
    # frames all masked still project, and their projection gets a zero one
    table = {0: ad.embedding(params["tok_emb"], tokens, proj=params["w_text"])}
    for kind, block in (("acoustic", 1), ("visual", 2)):
        if frames[kind]:
            table[block] = ad.linear(ad.constant(np.concatenate(frames[kind])),
                                     params[f"proj_{kind}_w"], params[f"proj_{kind}_b"])
        if (src == block + 2).any():
            table[block + 2] = params[f"mask_vec_{kind}"]
    first = np.cumsum([0] + [(table[b].shape[0] if b < 3 else 1) if b in table else 0
                             for b in range(len(_BLOCK_TYPE))])  # a mask vector is one row
    x = ad.embedding(ad.concat_rows([table[b] for b in sorted(table)]), first[src] + rows,
                     (params["type_emb"], _BLOCK_TYPE[src]), (params["pos_emb"], pos_ids),
                     (params["dataset_emb"],
                      np.array([ps.dataset_index for ps in prompts]).repeat(lengths)))
    x = _maybe_dropout(x, config, rng)

    for i in range(config.layers_enc):
        a = _attention(params, f"enc{i}_attn", x, x, config, offsets, offsets)
        a = _maybe_dropout(a, config, rng)
        x = ad.layer_norm(x, params[f"enc{i}_ln1_g"], params[f"enc{i}_ln1_b"], residual=a)
        f = _maybe_dropout(_ffn(params, f"enc{i}_ffn", x), config, rng)
        x = ad.layer_norm(x, params[f"enc{i}_ln2_g"], params[f"enc{i}_ln2_b"], residual=f)
    return x, offsets


def encode(ps, params, config, vocab, mask_plan=None, train=False, rng=None):
    """Run the encoder over one prompt: ``encode_batch``'s batch of one, so
    ``pooled`` is (1, d).

    ``mask_plan`` (optional) corrupts the stream for reconstruction training:
    listed token positions are replaced by the mask token, listed modal frames
    by the learned per-modality mask vector. Masking never changes lengths.
    ``train`` drops units with the stream ``rng``, which it needs.
    """
    if train and rng is None:
        raise ContractError("training forward pass needs an RNG stream for dropout")
    return encode_batch([ps], params, config, vocab, [mask_plan], rng if train else None)


def encode_batch(prompts, params, config, vocab, mask_plans=None, rng=None):
    """Run the encoder over ``prompts`` as one packed batch, each corrupted
    by its entry of ``mask_plans`` (optional; see ``encode``), dropping
    units when handed the dropout stream ``rng``. Every sample's states,
    and its row of ``pooled``, equal what ``encode`` gives it alone, up to
    rounding, with dropout off."""
    if not prompts:
        raise ContractError("cannot encode an empty batch")
    plans = [None] * len(prompts) if mask_plans is None else mask_plans
    x, offsets = _encode(prompts, plans, params, config, vocab, rng)
    return EncoderOutput(states=x, pooled=ad.segment_mean(x, offsets), offsets=offsets)


class DecoderCache:
    """Decoder state for incremental decoding of ``enc_out``, the encoding
    of one prompt or a batch of B, laid out whole when the cache is made:
    ``_keys_values``' keys (unbiased) and values in attention's padded
    per-head layout, one entry per decoder layer, so a call lays out only
    the positions it feeds. ``length`` counts the positions each sample has
    been fed; ``cross`` holds each layer's cross-attention ``ad.HeadLayout``
    of the encoder states; ``held`` each layer's self-attention keys and
    values, two (B, heads, capacity, d / heads) buffers, written at
    ``length`` on and read as the ``[:, :, :length]`` view of those fed.

    ``capacity`` is the most positions the cache takes (``generate_batch``
    passes the ``max_new`` it feeds). A cache serves ``enc_out`` alone,
    through the frozen ``params`` it was made from: its arrays take no
    gradient, and ``ad.attend`` refuses queries that do.
    """

    def __init__(self, params, enc_out, config, capacity):
        self.enc_out, self.capacity, self.length = enc_out, capacity, 0
        # a comprehension, so one layer's packed keys are gone before the next's are projected
        self.cross = [ad.head_layout(*_keys_values(params, f"dec{i}_cross", enc_out.states),
                                     config.heads, enc_out.offsets) for i in range(config.layers_dec)]
        shape = (len(enc_out.offsets) - 1, config.heads, capacity, config.model_dim // config.heads)
        self.held = [(np.empty(shape), np.empty(shape)) for _ in range(config.layers_dec)]

    def grown_keys(self, params, i, x, keys):
        """Layer ``i``'s self-attention keys and values for the n positions
        per sample that ``keys``, the step's ``ad.Segments`` for every layer,
        bounds: the new rows ``x`` go into its buffers after the ones held."""
        k, v = self.held[i]
        (batch, heads, _, hd), n = k.shape, keys.longest
        for buf, rows in zip((k, v), _keys_values(params, f"dec{i}_self", x)):
            buf[:, :, self.length:n] = rows.reshape(batch, -1, heads, hd).transpose(0, 2, 1, 3)
        return ad.HeadLayout(k[:, :, :n], v[:, :, :n], keys)


def decoder_states(dec_ids, enc_out, params, config, rng=None, cache=None):
    """Decoder pass over ``dec_ids``; returns their hidden states, sample-major.

    ``dec_ids`` is a (B, n) array for the B samples of ``enc_out``, one row
    of n ids per sample (one prompt's is (1, n)), and the result (B * n, d):
    every sample has n rows, so its offsets are equal steps of n, and the
    cross-attention reads the packed encoder rows through ``enc_out.offsets``.

    Without a ``cache`` the ids are the whole teacher-forced stream. With one,
    they continue the positions fed through it (``DecoderCache.grown_keys``),
    so a token is never run through the decoder twice; both give the same
    states up to rounding. A cache made for another ``enc_out``, even one of
    the same batch size, is a ContractError before anything is fed; so is
    feeding a cache past its capacity, or through parameters that record a
    graph.
    """
    batch = len(enc_out.offsets) - 1
    ids = np.asarray(dec_ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[0] != batch:
        raise ShapeError(f"decoder ids of shape {ids.shape} do not fit a batch of {batch}")
    if ids.shape[1] == 0:
        raise ContractError("decoder needs at least one input token")
    if cache is not None and cache.enc_out is not enc_out:
        raise ContractError("decoder cache was made for another encoding")
    past = cache.length if cache is not None else 0
    n = past + ids.shape[1]
    if n > config.max_len:
        raise ContractError(f"decoder stream of {n} positions exceeds max length {config.max_len}")
    if cache is not None and n > cache.capacity:
        raise ContractError(f"decoder stream of {n} positions exceeds its cache's "
                            f"capacity {cache.capacity}")
    positions = np.arange(past, n)[None].repeat(batch, axis=0).reshape(-1)
    x = ad.embedding(params["tok_emb"], ids.reshape(-1), (params["pos_emb"], positions),
                     proj=params["w_text"])
    x = _maybe_dropout(x, config, rng)

    fed = np.arange(batch + 1) * ids.shape[1]  # each sample's new rows
    keys = None if cache is None else ad.Segments(np.arange(batch + 1) * n, batch * n, "attention")
    for i in range(config.layers_dec):
        prefix = f"dec{i}_self"
        if cache is None:  # the new rows are the whole stream, and their own keys
            a = _attention(params, prefix, x, x, config, fed, fed, causal=True)
        else:
            a = _cached_attention(params, prefix, x, cache.grown_keys(params, i, x, keys), fed, True)
        a = _maybe_dropout(a, config, rng)
        x = ad.layer_norm(x, params[f"dec{i}_ln1_g"], params[f"dec{i}_ln1_b"], residual=a)
        prefix = f"dec{i}_cross"
        if cache is None:
            c = _attention(params, prefix, x, enc_out.states, config, fed, enc_out.offsets)
        else:
            c = _cached_attention(params, prefix, x, cache.cross[i], fed)
        c = _maybe_dropout(c, config, rng)
        x = ad.layer_norm(x, params[f"dec{i}_ln2_g"], params[f"dec{i}_ln2_b"], residual=c)
        f = _maybe_dropout(_ffn(params, f"dec{i}_ffn", x), config, rng)
        x = ad.layer_norm(x, params[f"dec{i}_ln3_g"], params[f"dec{i}_ln3_b"], residual=f)
    if cache is not None:
        cache.length = n
    return x


def token_logits(hidden, params):
    """A decoding step's (rows, V) scores of the states ``hidden``, with no
    graph: ``ad.tied_logits``, which every loss's ``ad.token_loss`` runs too."""
    return ad.tied_logits(hidden.data, params["w_text"].data, params["tok_emb"].data)[-1]


# encoder rows per inference batch, counted as if padded to the longest
# stream: attention pads inside its one op, so this bounds its (B, heads, L, L) buffers
_ROW_BUDGET = 256

# prompts per greedy-decoding batch: wider groups run each step's ops on more
# rows, but their self-attention buffers and padded cross-attention keys grow
_DECODE_ROWS = 32


def _row_chunks(prompts):
    """Consecutive slices of ``prompts``, in order, each holding as many
    prompts as fit in ``_ROW_BUDGET`` encoder rows once padded to the
    slice's longest stream (at least one prompt, however long)."""
    start, width = 0, 0
    for i, ps in enumerate(prompts):
        width = max(width, len(ps.ids) + ps.frame_count)
        if i > start and (i + 1 - start) * width > _ROW_BUDGET:
            yield prompts[start:i]
            start, width = i, len(ps.ids) + ps.frame_count
    if start < len(prompts):
        yield prompts[start:]


def pooled_vectors(prompts, params, config, vocab):
    """Clean pooled encodings of ``prompts`` on frozen parameters, batched
    by ``_row_chunks``: a (len(prompts), model_dim) array."""
    params = freeze_params(params)
    return np.concatenate([np.zeros((0, config.model_dim))] +
                          [encode_batch(chunk, params, config, vocab).pooled.data
                           for chunk in _row_chunks(prompts)])


def join_encodings(parts):
    """One packed ``EncoderOutput`` of the samples of ``parts`` (packed
    outputs), in order: their ``states`` and ``pooled`` rows concatenated,
    and each part's offsets shifted past the rows before it. Every sample
    keeps its rows, so decoding the joined output gives it the states its
    own part gives it. Joining no parts is a ContractError."""
    if not parts:
        raise ContractError("cannot join zero encoder outputs")
    if len(parts) == 1:
        return parts[0]
    shifts = np.cumsum([0] + [p.offsets[-1] for p in parts[:-1]])
    return EncoderOutput(states=ad.concat_rows([p.states for p in parts]),
                         pooled=ad.concat_rows([p.pooled for p in parts]),
                         offsets=np.concatenate([[0]] + [p.offsets[1:] + s
                                                         for p, s in zip(parts, shifts)]))


def generate_batch(prompts, params, config, vocab, max_new=8):
    """Greedy decoding of many prompts. Returns one id list per prompt,
    equal to what ``generate`` gives it alone (up to rounding in near-ties
    of the argmax).

    Prefill is narrow and decode is wide: the prompts are cut into groups
    of ``_DECODE_ROWS`` consecutive prompts, each group is encoded in its
    own ``_row_chunks`` slices and joined into one encoding, from which one
    ``DecoderCache`` of ``max_new`` positions is made, and every row of the
    group is fed one token per step through it. A row stops recording at
    its first <eos>, and the group ends when every row has stopped or after
    ``max_new`` tokens. A ``max_new`` outside [1, ``config.max_len``] is a
    ``ContractError``, raised before any prompt is encoded.
    """
    if not 1 <= max_new <= config.max_len:
        raise ContractError(f"max_new {max_new} outside [1, max length {config.max_len}]")
    params = freeze_params(params)
    out = []
    for start in range(0, len(prompts), _DECODE_ROWS):
        group = prompts[start:start + _DECODE_ROWS]
        enc = join_encodings([encode_batch(chunk, params, config, vocab)
                              for chunk in _row_chunks(group)])
        cache = DecoderCache(params, enc, config, max_new)
        ids = [[] for _ in group]
        running = np.ones(len(group), dtype=bool)
        nxt = np.full(len(group), vocab.bos_id)
        for _ in range(max_new):
            h = decoder_states(nxt[:, None], enc, params, config, cache=cache)
            nxt = np.argmax(token_logits(h, params), axis=1)
            for i in np.flatnonzero(running):
                ids[i].append(int(nxt[i]))
            running &= nxt != vocab.eos_id
            if not running.any():
                break
        out.extend(ids)
        del enc, cache  # before the next group's are made
    return out


def generate(ps, params, config, vocab, max_new=8):
    """Greedy decoding of one prompt, the batch of one: start from <bos>,
    stop at <eos> or after ``max_new`` tokens. Returns generated ids (<eos>
    included when produced). Deterministic.

    Runs on frozen parameters, so it records no graph, and feeds the decoder
    one token per step through a ``DecoderCache``. A ``max_new`` above
    ``config.max_len`` is a ``ContractError`` before anything is decoded.
    """
    return generate_batch([ps], params, config, vocab, max_new=max_new)[0]


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config, arrays, meta=None, copies=()):
    """Write a self-contained checkpoint: fixed magic, version, a JSON header
    (model config, metadata, array manifest, payload CRC-32), then raw
    little-endian array bytes. Byte-stable for identical inputs, and atomic:
    the file at ``path`` is either the old one or the complete new one. Each
    path of ``copies`` then gets the same bytes, written the same way, from
    the one serialization."""
    manifest = []
    blobs = []
    offset = crc = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.int64:
            dtype = "<i8"
        else:
            raise ContractError(f"checkpoint array {name!r} has unsupported dtype {arr.dtype}")
        # the array's own bytes through a view: no copy on a little-endian host
        blob = arr.astype(dtype, copy=False).reshape(-1).view(np.uint8)
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += blob.size
        crc = zlib.crc32(blob, crc)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_json(),
        "meta": meta or {},
        "arrays": manifest,
        "payload_crc32": crc,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    # a crash mid-write never leaves a torn checkpoint or truncates the one
    # being resumed from
    chunks = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)),
              header_bytes, *blobs]
    for target in (path, *copies):
        write_file_atomic(target, chunks, sync=True)


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelConfig, arrays dict, meta dict).

    A missing or unreadable path, any malformed header (one naming an array
    twice, say), or a payload that does not match the header's CRC-32, is a
    ``ConfigError``. The header and its whole manifest are checked against
    the file's size before any array is allocated, so a header that claims
    more bytes than the file holds is refused, not allocated. Each array is
    then read once into its own array, the CRC-32 run as it reads: a load
    holds one copy of the payload, never the file's bytes beside it."""
    with reading(path, "checkpoint") as file, open(file, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if len(head) < 16 or head[:4] != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        version, header_len = struct.unpack("<IQ", head[4:])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        if header_len > size - 16:
            raise ConfigError(f"{path}: checkpoint header of {header_len} bytes runs past the end of the file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            if not isinstance(header, dict):
                raise ConfigError(f"{path}: checkpoint header is not a JSON object")
            expected_crc = header["payload_crc32"]
            layout = _payload_layout(header["arrays"], size - 16 - header_len, path)
            try:
                config = ModelConfig.from_json(header["config"]).validate()
            except ConfigError as exc:
                raise ConfigError(f"{path}: checkpoint {exc}") from exc
            meta = header.get("meta", {})
            if not isinstance(meta, dict):
                raise ConfigError(f"{path}: checkpoint metadata is not a JSON object")
            arrays, crc = {}, 0
            for name, dtype, shape in layout:
                # read and summed through the array's own C-contiguous buffer
                arr = arrays[name] = np.empty(shape, dtype)
                if fh.readinto(arr) != arr.nbytes:  # the file shrank since it was sized
                    raise ConfigError(f"{path}: checkpoint file ends inside array {name!r}")
                crc = zlib.crc32(arr, crc)
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError covers undecodable bytes and malformed JSON
            raise ConfigError(f"{path}: corrupt checkpoint header ({type(exc).__name__}: {exc})") from exc
    if crc != expected_crc:
        raise ConfigError(f"{path}: checkpoint payload does not match its CRC-32")
    return config, arrays, meta


def _payload_layout(entries, size, path):
    """The (name, dtype, shape) of each array of the manifest ``entries``,
    checked against a payload of ``size`` bytes before anything is read: a
    known dtype, a shape of whole numbers, no name twice, and entries that
    tile the payload exactly, in order, from offset 0."""
    layout, names, offset = [], set(), 0
    for entry in entries:
        name, start, shape = entry["name"], entry["offset"], tuple(entry["shape"])
        dtype = _CHECKPOINT_DTYPES.get(entry["dtype"])
        if dtype is None:
            raise ConfigError(f"{path}: unsupported dtype {entry['dtype']!r} in checkpoint")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ConfigError(f"{path}: bad shape for array {name!r}")
        if name in names:
            raise ConfigError(f"{path}: checkpoint names array {name!r} twice")
        if type(start) is not int or start != offset:
            raise ConfigError(f"{path}: checkpoint array {name!r} starts at payload byte "
                              f"{start!r}, not {offset}")
        offset += math.prod(shape) * dtype.itemsize
        if offset > size:
            raise ConfigError(f"{path}: truncated checkpoint payload at array {name!r}")
        names.add(name)
        layout.append((name, dtype, shape))
    if offset != size:
        raise ConfigError(f"{path}: checkpoint payload holds {size - offset} bytes past its last array")
    return layout


def params_to_arrays(params):
    return {f"param/{name}": t.data for name, t in params.items()}


def params_from_arrays(config, arrays):
    """Rebuild the parameter dict from checkpoint arrays, failing loudly on
    any name or shape that differs from ``param_layout``'s."""
    params = {}
    for name, shape, _ in param_layout(config):
        stored = arrays.get(f"param/{name}")
        if stored is None:
            raise ShapeError(f"checkpoint is missing parameter {name!r}")
        if tuple(stored.shape) != shape:
            raise ShapeError(
                f"checkpoint parameter {name!r} has shape {tuple(stored.shape)}, expected {shape}")
        params[name] = ad.Tensor(np.asarray(stored, dtype=np.float64), requires_grad=True, op="param")
    extra = [k for k in arrays if k.startswith("param/") and k[len("param/"):] not in params]
    if extra:
        raise ShapeError(f"checkpoint carries unknown parameters {sorted(extra)}")
    return params
