"""Encoder-decoder over unified prompts.

The encoder consumes one stream per sample: token embeddings for the prompt
spans, projected acoustic/visual frames appended after the text, each position
carrying a modality-type embedding, a position embedding, and the dataset
embedding row for the record's dataset. A stream holds no pad token:
``_encode`` rejects one, so every position is real and is the one at its
index. Attention is bidirectional. The decoder is autoregressive with
cross-attention into the encoder states, and its output projection is tied
to the token embedding table.

The encoder runs on a batch of samples packed end to end. Tensors stay 2-D:
a batch of B streams is N = the summed stream lengths rows, sample after
sample, with ``offsets`` (B + 1 row bounds, the ``cu_seqlens`` layout)
marking where each sample starts. Every per-row op (input gather,
projections, each one ``ad.linear`` node, dropout, ``layer_norm`` with the
residual add inside its node, the FFN) runs on those N rows only, so no
arithmetic goes to padding. Multi-head attention is one fused autodiff op
that alone sees the sample bounds, and packed offsets are its only layout:
it pads the rows inside itself, keeps each sample's queries on its own keys
and gathers back. A batch's input rows are one gather from one table of
every sample's token embeddings, the projected acoustic and visual frames
and the mask vectors, so masking a token or a frame is a choice of row; the
same node adds each row's type, position and dataset embeddings. The
decoder's rows are B samples of n ids each, which is the packed layout with
equal offsets; its self-attention is causal and its cross-attention reads
the packed encoder rows through their offsets. ``encode``,
``decoder_states`` and ``generate`` on one prompt are the batch of one.
Training and inference both run these batches: a training step's losses read
``encode_batch`` encodings, with one dropout mask per batched tensor;
inference uses ``pooled_vectors`` and ``generate_batch``.

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
instead of re-running the decoder over every prefix. The cache holds keys
and values already in attention's padded per-head layout: each
cross-attention block's encoder keys are split into (B, heads, L, d / heads)
once per batch, with their key mask, and each self-attention block writes
its new positions into preallocated (B, heads, capacity, d / heads) buffers,
of which attention reads the positions fed so far as a view. A step lays
out only what it feeds and copies nothing held; training passes no cache,
so its attention lays out its own keys.

Checkpoints are written, synced, through ``data.write_file_atomic``, so a
failed save leaves the old checkpoint whole.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .data import read_bytes, write_file_atomic
from .errors import ConfigError, ContractError, ShapeError

CHECKPOINT_MAGIC = b"SGCK"
CHECKPOINT_VERSION = 2

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
    ``init`` being one of ``_INIT``'s rules. Table order is the optimizer's
    update order and the checkpoint layout."""
    config.validate()
    d, f = config.model_dim, config.ffn_dim
    attn = [(m, (d, d), "xavier") for m in ("wq", "wk", "wv", "wo")] + \
           [(b, (d,), "zeros") for b in ("bq", "bk", "bv", "bo")]
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
    """Key and value projections of ``x_kv`` for one attention block."""
    return _linear(params, prefix, x_kv, "wk", "bk"), _linear(params, prefix, x_kv, "wv", "bv")


def _attention(params, prefix, x_q, kv, config, q_offsets, k_offsets, causal=False):
    """Multi-head scaled dot-product attention of ``x_q`` over ``kv``, each
    side packed by its offsets (see ``ad.attention``). ``kv`` is the
    block's projected keys and values; with ``k_offsets`` None, it is a
    ``DecoderCache``'s ``ad.HeadLayout`` of them."""
    q = _linear(params, prefix, x_q, "wq", "bq")
    if k_offsets is None:
        mixed = ad.attention(q, None, None, config.heads, q_offsets, None, causal, layout=kv)
    else:
        mixed = ad.attention(q, kv[0], kv[1], config.heads, q_offsets, k_offsets, causal)
    return _linear(params, prefix, mixed, "wo", "bo")


def _ffn(params, prefix, x):
    h = ad.gelu(_linear(params, prefix, x, "w1", "b1"))
    return _linear(params, prefix, h, "w2", "b2")


def _maybe_dropout(x, config, train, rng):
    if train and config.dropout_rate > 0.0:
        if rng is None:
            raise ContractError("training forward pass needs an RNG stream for dropout")
        return ad.dropout(x, config.dropout_rate, rng)
    return x


@dataclass
class EncoderOutput:
    """Encoder states of a batch of B prompts, packed: sample i's stream is
    rows offsets[i]:offsets[i + 1] of ``states``, every row a real stream
    position, with no pad rows inside or between samples. ``pooled`` is
    each sample's mean row. For one prompt, B = 1 and ``pooled`` drops the
    batch axis."""

    states: ad.Tensor      # (N, model_dim), N = offsets[-1], the summed stream lengths
    pooled: ad.Tensor      # (B, model_dim), or (model_dim,) for one prompt
    offsets: np.ndarray    # int (B + 1,): where each sample's rows start, then N


# An encoder batch's input rows come from one table of blocks: 0 every
# sample's tokens, 1 acoustic and 2 visual frames (block = type id), 3 and 4
# the acoustic and visual mask vectors. A position takes the type id of the
# block it reads.
_BLOCK_TYPE = np.array([0, 1, 2, 1, 2])


def _encode(prompts, mask_plans, params, config, vocab, train, rng):
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
    d = config.model_dim
    table = {0: ad.matmul(ad.embedding(params["tok_emb"], tokens), params["w_text"])}
    for kind, block in (("acoustic", 1), ("visual", 2)):
        if frames[kind]:
            table[block] = ad.linear(ad.constant(np.concatenate(frames[kind])),
                                     params[f"proj_{kind}_w"], params[f"proj_{kind}_b"])
        if (src == block + 2).any():
            table[block + 2] = ad.reshape(params[f"mask_vec_{kind}"], (1, d))
    first = np.cumsum([0] + [table[b].shape[0] if b in table else 0 for b in range(len(_BLOCK_TYPE))])
    x = ad.embedding(ad.concat_rows([table[b] for b in sorted(table)]), first[src] + rows,
                     (params["type_emb"], _BLOCK_TYPE[src]), (params["pos_emb"], pos_ids),
                     (params["dataset_emb"],
                      np.array([ps.dataset_index for ps in prompts]).repeat(lengths)))
    x = _maybe_dropout(x, config, train, rng)

    for i in range(config.layers_enc):
        prefix = f"enc{i}_attn"
        a = _attention(params, prefix, x, _keys_values(params, prefix, x), config, offsets, offsets)
        a = _maybe_dropout(a, config, train, rng)
        x = ad.layer_norm(x, params[f"enc{i}_ln1_g"], params[f"enc{i}_ln1_b"], residual=a)
        f = _maybe_dropout(_ffn(params, f"enc{i}_ffn", x), config, train, rng)
        x = ad.layer_norm(x, params[f"enc{i}_ln2_g"], params[f"enc{i}_ln2_b"], residual=f)
    return x, offsets


def encode(ps, params, config, vocab, mask_plan=None, train=False, rng=None):
    """Run the encoder over one prompt: the batch of one.

    ``mask_plan`` (optional) corrupts the stream for reconstruction training:
    listed token positions are replaced by the mask token, listed modal frames
    by the learned per-modality mask vector. Masking never changes lengths.
    """
    enc = encode_batch([ps], params, config, vocab, [mask_plan], train, rng)
    enc.pooled = ad.reshape(enc.pooled, (config.model_dim,))
    return enc


def encode_batch(prompts, params, config, vocab, mask_plans=None, train=False, rng=None):
    """Run the encoder over ``prompts`` as one packed batch, each corrupted
    by its entry of ``mask_plans`` (optional; see ``encode``). Every
    sample's states, and its row of ``pooled``, equal what ``encode`` gives
    it alone, up to rounding, with dropout off."""
    if not prompts:
        raise ContractError("cannot encode an empty batch")
    plans = [None] * len(prompts) if mask_plans is None else mask_plans
    x, offsets = _encode(prompts, plans, params, config, vocab, train, rng)
    return EncoderOutput(states=x, pooled=ad.segment_mean(x, offsets), offsets=offsets)


class DecoderCache:
    """Decoder state for incremental decoding of one prompt or a batch of B,
    held in ``ad.attention``'s padded per-head layout, so a call lays out
    only the positions it feeds:

    - ``length``: how many positions each sample has been fed;
    - ``cross``: each cross-attention block's encoder keys and values, an
      ``ad.HeadLayout`` split once, at the first call, with its key mask;
    - ``held``: each self-attention block's keys and values, two
      (B, heads, capacity, d / heads) buffers. A call writes its new
      positions into them at ``length`` on, and attention reads the
      ``[:, :, :length]`` view of the positions fed so far.

    ``capacity`` is the most positions the cache takes (``generate_batch``
    passes the ``max_new`` it feeds). It holds arrays, so it decodes on frozen
    parameters only: ``ad.attention`` refuses queries that need a gradient.
    """

    def __init__(self, capacity):
        self.length = 0
        self.capacity = capacity
        self.cross = {}
        self.held = {}

    def encoder_keys(self, params, prefix, enc_out, heads):
        """The layout of one cross-attention block's keys and values,
        projected from the encoder states and split at the first call."""
        layout = self.cross.get(prefix)
        if layout is None:
            k, v = _keys_values(params, prefix, enc_out.states)
            layout = self.cross[prefix] = ad.head_layout(k.data, v.data, heads, enc_out.offsets)
        return layout

    def grown_keys(self, params, prefix, x, heads, n):
        """One self-attention block's keys and values for every position up
        to ``n``: those of the new rows ``x`` (B * (n - length), d), written
        into the block's buffers at ``length:n``, after the ones held."""
        new = _keys_values(params, prefix, x)
        batch, hd = x.shape[0] // (n - self.length), x.shape[1] // heads
        buffers = self.held.get(prefix)
        if buffers is None:
            shape = (batch, heads, self.capacity, hd)
            buffers = self.held[prefix] = (np.empty(shape), np.empty(shape))
        elif buffers[0].shape[0] != batch:
            raise ShapeError(f"decoder cache holds {buffers[0].shape[0]} samples, not {batch}")
        for buf, rows in zip(buffers, new):
            buf[:, :, self.length:n] = rows.data.reshape(batch, -1, heads, hd).transpose(0, 2, 1, 3)
        return ad.HeadLayout(buffers[0][:, :, :n], buffers[1][:, :, :n], np.full(batch, n))


def decoder_states(dec_ids, enc_out, params, config, train=False, rng=None, cache=None):
    """Decoder pass over ``dec_ids``; returns their hidden states, sample-major.

    For one prompt ``dec_ids`` is a list of ids and the result is
    (len(dec_ids), d). For a batch encoded by ``encode_batch`` it is a
    (B, n) array, one row of n ids per sample, and the result (B * n, d):
    every sample has n rows, so its offsets are equal steps of n, and the
    cross-attention reads the packed encoder rows through ``enc_out.offsets``.

    Without a ``cache`` the ids are the whole teacher-forced stream. With one,
    they continue the positions already fed through that cache: the first
    call lays out the cross-attention keys and values, and each call writes
    the new positions' self-attention keys and values after the held ones,
    so a token is never run through the decoder twice. Both give the same
    states up to rounding. Feeding a cache past its capacity, or through
    parameters that record a graph, is a ContractError.
    """
    batch = len(enc_out.offsets) - 1
    ids = np.asarray(dec_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids.reshape(1, -1)
    if ids.ndim != 2 or ids.shape[0] != batch:
        raise ShapeError(f"decoder ids of shape {ids.shape} do not fit a batch of {batch}")
    if ids.shape[1] == 0:
        raise ContractError("decoder needs at least one input token")
    past = cache.length if cache is not None else 0
    n = past + ids.shape[1]
    if n > config.max_len:
        raise ContractError(f"decoder stream of {n} positions exceeds max length {config.max_len}")
    if cache is not None and n > cache.capacity:
        raise ContractError(f"decoder stream of {n} positions exceeds its cache's "
                            f"capacity {cache.capacity}")
    x = ad.matmul(ad.embedding(params["tok_emb"], ids.reshape(-1)), params["w_text"])
    positions = np.arange(past, n)[None].repeat(batch, axis=0).reshape(-1)
    x = ad.add(x, ad.embedding(params["pos_emb"], positions))
    x = _maybe_dropout(x, config, train, rng)

    fed = np.arange(batch + 1) * ids.shape[1]  # each sample's new rows
    for i in range(config.layers_dec):
        prefix = f"dec{i}_self"
        if cache is None:  # the new rows are the whole stream, and their own keys
            kv, held = _keys_values(params, prefix, x), fed
        else:
            kv, held = cache.grown_keys(params, prefix, x, config.heads, n), None
        a = _attention(params, prefix, x, kv, config, fed, held, causal=True)
        a = _maybe_dropout(a, config, train, rng)
        x = ad.layer_norm(x, params[f"dec{i}_ln1_g"], params[f"dec{i}_ln1_b"], residual=a)
        prefix = f"dec{i}_cross"
        if cache is None:
            kv, held = _keys_values(params, prefix, enc_out.states), enc_out.offsets
        else:
            kv, held = cache.encoder_keys(params, prefix, enc_out, config.heads), None
        c = _attention(params, prefix, x, kv, config, fed, held)
        c = _maybe_dropout(c, config, train, rng)
        x = ad.layer_norm(x, params[f"dec{i}_ln2_g"], params[f"dec{i}_ln2_b"], residual=c)
        f = _maybe_dropout(_ffn(params, f"dec{i}_ffn", x), config, train, rng)
        x = ad.layer_norm(x, params[f"dec{i}_ln3_g"], params[f"dec{i}_ln3_b"], residual=f)
    if cache is not None:
        cache.length = n
    return x


def token_logits(hidden, params, cols=None):
    """Project decoder (or encoder) states onto the vocabulary through the
    tied output projection, ``w_text`` and the token embedding table, both
    transposed; with ``cols``, onto those token ids' columns alone. Every
    loss and every decoding step scores tokens through it. Each transpose
    is a contiguous copy, made per call, which fixes the products' bits."""
    tok_emb = params["tok_emb"] if cols is None else ad.embedding(params["tok_emb"], cols)
    return ad.matmul(ad.matmul(hidden, ad.transpose(params["w_text"])), ad.transpose(tok_emb))


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
    own ``_row_chunks`` slices, joined into one encoding, and the decoder
    runs on the whole group. Every row of a group is fed one token per step
    through a shared ``DecoderCache`` sized for the ``max_new`` positions it
    can be fed (at most ``config.max_len``). A row stops recording at its
    first <eos>, and the group ends when every row has stopped or after
    ``max_new`` tokens. A row still running when its stream would pass
    ``config.max_len`` raises ``ContractError``.
    """
    if max_new < 1:
        raise ContractError("max_new must be at least 1")
    params = freeze_params(params)
    out = []
    for start in range(0, len(prompts), _DECODE_ROWS):
        group = prompts[start:start + _DECODE_ROWS]
        enc = join_encodings([encode_batch(chunk, params, config, vocab)
                              for chunk in _row_chunks(group)])
        cache = DecoderCache(min(max_new, config.max_len))
        ids = [[] for _ in group]
        running = np.ones(len(group), dtype=bool)
        nxt = np.full(len(group), vocab.bos_id)
        for _ in range(max_new):
            h = decoder_states(nxt[:, None], enc, params, config, cache=cache)
            nxt = np.argmax(token_logits(h, params).data, axis=1)
            for i in np.flatnonzero(running):
                ids[i].append(int(nxt[i]))
            running &= nxt != vocab.eos_id
            if not running.any():
                break
        out.extend(ids)
    return out


def generate(ps, params, config, vocab, max_new=8):
    """Greedy decoding of one prompt, the batch of one: start from <bos>,
    stop at <eos> or after ``max_new`` tokens. Returns generated ids (<eos>
    included when produced). Deterministic.

    Runs on frozen parameters, so it records no graph, and feeds the decoder
    one token per step through a ``DecoderCache``. A stream longer than
    ``config.max_len`` raises ``ContractError`` at the step that overflows.
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
        blob = arr.astype(dtype).tobytes(order="C")
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
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

    A missing or unreadable path, any malformed header, or a payload that
    does not match the header's CRC-32, is a ``ConfigError``."""
    blob = read_bytes(path, "checkpoint")
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
        if not isinstance(header, dict):
            raise ConfigError(f"{path}: checkpoint header is not a JSON object")
        payload = blob[16 + header_len:]
        if header["payload_crc32"] != zlib.crc32(payload):
            raise ConfigError(f"{path}: checkpoint payload does not match its CRC-32")
        arrays = {}
        for entry in header["arrays"]:
            if entry["dtype"] not in ("<f8", "<i8"):
                raise ConfigError(f"{path}: unsupported dtype {entry['dtype']!r} in checkpoint")
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            start = entry["offset"]
            if not all(type(n) is int and n >= 0 for n in shape + (start,)):
                raise ConfigError(f"{path}: bad shape or offset for array {entry['name']!r}")
            stop = start + math.prod(shape) * dtype.itemsize
            if stop > len(payload):
                raise ConfigError(f"{path}: truncated checkpoint payload at array {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(payload[start:stop], dtype=dtype).reshape(shape).copy()
        try:
            config = ModelConfig.from_json(header["config"]).validate()
        except ConfigError as exc:
            raise ConfigError(f"{path}: checkpoint {exc}") from exc
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}: checkpoint metadata is not a JSON object")
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers undecodable bytes and malformed JSON
        raise ConfigError(f"{path}: corrupt checkpoint header ({type(exc).__name__}: {exc})") from exc
    return config, arrays, meta


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
