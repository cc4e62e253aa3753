"""Encoder-decoder over unified prompts.

The encoder consumes one stream per sample: token embeddings for the prompt
spans, projected acoustic/visual frames appended after the text, each position
carrying a modality-type embedding, a position embedding, and the dataset
embedding row for the record's dataset. Attention is bidirectional; pad
positions (if any) are dropped from attention, pooling, and position counting,
so where pads sit never changes the outputs. The decoder is autoregressive
with cross-attention into the encoder states, and its output projection is
tied to the token embedding table.

The encoder and decoder run on a batch of samples, padded to the longest
stream. Tensors stay 2-D: a batch of B samples of L positions is B·L
sample-major rows, and multi-head attention is one fused autodiff op whose
per-sample bias keeps each sample's queries on its own keys and masks the
pads. ``encode``, ``decoder_states`` and ``generate`` on one prompt are the
batch of one. Training and inference both run padded batches: a training
step's losses read ``encode_batch`` encodings, with one dropout mask per
batched tensor; inference uses ``pooled_vectors`` and ``generate_batch``.

Training and inference share one forward code path. Inference runs it on
``freeze_params`` constants, which record no graph, and greedy decoding feeds
``decoder_states`` one token per row at a time through a ``DecoderCache`` of
keys and values instead of re-running the decoder over every prefix.
"""
from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, ShapeError
from .prompt import flatten_prompt

CHECKPOINT_MAGIC = b"SGCK"
CHECKPOINT_VERSION = 2

_NEG_INF = -1e30
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
    that is not an object, an unknown key, or a value whose JSON type does
    not fit its field is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object")
    fields = cls.__dataclass_fields__
    extra = set(obj) - set(fields)
    if extra:
        raise ConfigError(f"unknown {section} keys {sorted(extra)}")
    for key, value in obj.items():
        if type(value) not in _JSON_TYPES[fields[key].type]:
            raise ConfigError(f"{section} field {key!r} must be {fields[key].type}, got {value!r}")
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
    return ad.add(ad.matmul(x, params[f"{prefix}_{w}"]), params[f"{prefix}_{b}"])


def _keys_values(params, prefix, x_kv, cache=None, grow=False, batch=1):
    """Key and value projections of ``x_kv`` for one attention block.

    With a ``cache``, a growing (self-attention) block appends the new
    positions of each of the ``batch`` samples to the keys and values held
    so far, keeping the rows sample-major; a fixed (cross-attention) block
    projects once and then reuses what it holds.
    """
    held = cache.kv.get(prefix) if cache is not None else None
    if held is not None and not grow:
        return held
    k = _linear(params, prefix, x_kv, "wk", "bk")
    v = _linear(params, prefix, x_kv, "wv", "bv")
    if held is not None:
        past, new = held[0].shape[0] // batch, k.shape[0] // batch
        sample = np.arange(batch)[:, None]
        pos = np.arange(past + new)[None, :]
        order = np.where(pos < past, sample * past + pos,
                         batch * past + sample * new + pos - past).reshape(-1)
        k, v = (ad.embedding(ad.concat_rows([old, fresh]), order)
                for old, fresh in zip(held, (k, v)))
    if cache is not None:
        cache.kv[prefix] = (k, v)
    return k, v


def _attention(params, prefix, x_q, kv, config, mask_bias):
    """Multi-head scaled dot-product attention of ``x_q`` over projected
    ``kv``. ``mask_bias`` is a constant (B, Lq, Lk) or (B, 1, Lk) array of
    0 / -inf-like entries added to each sample's logits."""
    q = _linear(params, prefix, x_q, "wq", "bq")
    mixed = ad.attention(q, kv[0], kv[1], mask_bias, config.heads)
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
    """Encoder states of one prompt, or of a batch of B prompts padded to the
    longest stream L. For one prompt, B = 1 and ``keep`` and ``pooled`` drop
    the batch axis."""

    states: ad.Tensor      # (B * L, model_dim), sample-major
    pooled: ad.Tensor      # (model_dim,), or (B, model_dim) for a batch
    keep: np.ndarray       # bool (L,), or (B, L); False at pad positions
    token_length: object   # token positions (pads included): int, or a list per sample


def _encoder_input(ps, mask_plan, params, config, vocab):
    """One prompt's rows before the layer stack: token and projected frame
    embeddings (L, d), which positions are not pads, and each row's type."""
    ids = flatten_prompt(ps, vocab)
    n_tok = len(ids)
    total = n_tok + ps.frame_count
    if total > config.max_len:
        raise ContractError(f"encoder stream of {total} positions exceeds max length {config.max_len}")
    if n_tok == 0:
        raise ContractError("cannot encode an empty prompt")

    corrupted = list(ids)
    masked_frames = {}
    if mask_plan is not None:
        for pos in mask_plan.masked_token_positions:
            if not (0 <= pos < n_tok):
                raise IndexError(f"mask position {pos} outside the {n_tok}-token stream")
            corrupted[pos] = vocab.mask_id
        masked_frames = {k: tuple(v) for k, v in mask_plan.masked_modal_frames.items()}

    parts = [ad.matmul(ad.embedding(params["tok_emb"], corrupted), params["w_text"])]
    type_ids = [0] * n_tok
    for seg in ps.modal_segments:
        feats = ad.constant(np.asarray(seg.features, dtype=np.float64))
        w = params[f"proj_{seg.kind}_w"]
        b = params[f"proj_{seg.kind}_b"]
        if feats.shape[1] != w.shape[0]:
            raise ShapeError(
                f"{seg.kind} features have dim {feats.shape[1]}, model expects {w.shape[0]}")
        proj = ad.add(ad.matmul(feats, w), b)
        hit = masked_frames.get(seg.kind, ())
        if hit:
            rows = feats.shape[0]
            sel = np.zeros((rows, config.model_dim))
            for i in hit:
                if not (0 <= i < rows):
                    raise IndexError(f"masked {seg.kind} frame {i} outside {rows} frames")
                sel[i] = 1.0
            keep_m = ad.constant(1.0 - sel)
            proj = ad.add(ad.mul(proj, keep_m),
                          ad.mul(ad.tile_rows(params[f"mask_vec_{seg.kind}"], rows), ad.constant(sel)))
        parts.append(proj)
        type_ids.extend([_TYPE_INDEX[seg.kind]] * feats.shape[0])

    keep = np.ones(total, dtype=bool)
    keep[:n_tok] = np.asarray(corrupted) != vocab.pad_id
    x = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
    return x, keep, type_ids


def _encode(prompts, mask_plans, params, config, vocab, train, rng):
    """The encoder over a padded batch: states (B * L, d), keep (B, L).

    Each sample's rows are padded at the end to the longest stream. Pad rows
    are masked out of every sample's keys, so they never change a real row.
    """
    inputs = [_encoder_input(ps, plan, params, config, vocab)
              for ps, plan in zip(prompts, mask_plans)]
    width = max(len(keep) for _, keep, _ in inputs)
    keep = np.zeros((len(prompts), width), dtype=bool)
    type_ids = np.zeros((len(prompts), width), dtype=np.int64)
    parts = []
    for i, (rows, sample_keep, sample_types) in enumerate(inputs):
        n = len(sample_keep)
        keep[i, :n] = sample_keep
        type_ids[i, :n] = sample_types
        parts.append(rows)
        if n < width:
            parts.append(ad.constant(np.zeros((width - n, config.model_dim))))
    # pads do not consume position slots
    pos_ids = np.where(keep, keep.cumsum(axis=1) - 1, 0)

    x = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
    x = ad.add(x, ad.embedding(params["type_emb"], type_ids.reshape(-1)))
    x = ad.add(x, ad.embedding(params["pos_emb"], pos_ids.reshape(-1)))
    x = ad.add(x, ad.embedding(params["dataset_emb"],
                               np.array([ps.dataset_index for ps in prompts]).repeat(width)))
    x = _maybe_dropout(x, config, train, rng)

    key_bias = np.where(keep, 0.0, _NEG_INF)[:, None, :]  # broadcast over query rows
    for i in range(config.layers_enc):
        prefix = f"enc{i}_attn"
        a = _attention(params, prefix, x, _keys_values(params, prefix, x), config, key_bias)
        a = _maybe_dropout(a, config, train, rng)
        x = ad.layer_norm(ad.add(x, a), params[f"enc{i}_ln1_g"], params[f"enc{i}_ln1_b"])
        f = _maybe_dropout(_ffn(params, f"enc{i}_ffn", x), config, train, rng)
        x = ad.layer_norm(ad.add(x, f), params[f"enc{i}_ln2_g"], params[f"enc{i}_ln2_b"])
    return x, keep


def encode(ps, params, config, vocab, mask_plan=None, train=False, rng=None):
    """Run the encoder over one prompt: the batch of one.

    ``mask_plan`` (optional) corrupts the stream for reconstruction training:
    listed token positions are replaced by the mask token, listed modal frames
    by the learned per-modality mask vector. Masking never changes lengths.
    """
    x, keep = _encode([ps], [mask_plan], params, config, vocab, train, rng)
    return EncoderOutput(states=x, pooled=ad.masked_mean_rows(x, keep[0]), keep=keep[0],
                         token_length=ps.token_length)


def encode_batch(prompts, params, config, vocab, mask_plans=None, train=False, rng=None):
    """Run the encoder over ``prompts`` as one batch padded to the longest
    stream, each corrupted by its entry of ``mask_plans`` (optional; see
    ``encode``). Every sample's states, and its row of ``pooled``, equal
    what ``encode`` gives it alone, up to rounding, with dropout off."""
    if not prompts:
        raise ContractError("cannot encode an empty batch")
    plans = [None] * len(prompts) if mask_plans is None else mask_plans
    x, keep = _encode(prompts, plans, params, config, vocab, train, rng)
    return EncoderOutput(states=x, pooled=ad.masked_mean_rows(x, keep), keep=keep,
                         token_length=[ps.token_length for ps in prompts])


class DecoderCache:
    """Decoder state for incremental decoding of one prompt or a batch: how
    many positions each sample has been fed, and each attention block's keys
    and values (the encoder's for cross-attention, every fed position's for
    self-attention)."""

    def __init__(self):
        self.length = 0
        self.kv = {}


def decoder_states(dec_ids, enc_out, params, config, train=False, rng=None, cache=None):
    """Decoder pass over ``dec_ids``; returns their hidden states, sample-major.

    For one prompt ``dec_ids`` is a list of ids and the result is
    (len(dec_ids), d). For a batch encoded by ``encode_batch`` it is a
    (B, n) array, one row of n ids per sample, and the result (B * n, d).

    Without a ``cache`` the ids are the whole teacher-forced stream. With one,
    they continue the positions already fed through that cache: the first
    call stores the cross-attention keys and values, and each call appends
    the new positions' self-attention keys and values, so a token is never
    run through the decoder twice. Both give the same states up to rounding.
    """
    enc_keep = enc_out.keep.reshape(-1, enc_out.keep.shape[-1])
    batch = enc_keep.shape[0]
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
    x = ad.matmul(ad.embedding(params["tok_emb"], ids.reshape(-1)), params["w_text"])
    positions = np.arange(past, n)[None].repeat(batch, axis=0).reshape(-1)
    x = ad.add(x, ad.embedding(params["pos_emb"], positions))
    x = _maybe_dropout(x, config, train, rng)

    causal = np.where(np.arange(n)[None, :] <= np.arange(past, n)[:, None], 0.0, _NEG_INF)
    causal = causal[None].repeat(batch, axis=0)
    cross = np.where(enc_keep, 0.0, _NEG_INF)[:, None, :]
    for i in range(config.layers_dec):
        prefix = f"dec{i}_self"
        kv = _keys_values(params, prefix, x, cache, grow=True, batch=batch)
        a = _maybe_dropout(_attention(params, prefix, x, kv, config, causal), config, train, rng)
        x = ad.layer_norm(ad.add(x, a), params[f"dec{i}_ln1_g"], params[f"dec{i}_ln1_b"])
        prefix = f"dec{i}_cross"
        kv = _keys_values(params, prefix, enc_out.states, cache)
        c = _maybe_dropout(_attention(params, prefix, x, kv, config, cross), config, train, rng)
        x = ad.layer_norm(ad.add(x, c), params[f"dec{i}_ln2_g"], params[f"dec{i}_ln2_b"])
        f = _maybe_dropout(_ffn(params, f"dec{i}_ffn", x), config, train, rng)
        x = ad.layer_norm(ad.add(x, f), params[f"dec{i}_ln3_g"], params[f"dec{i}_ln3_b"])
    if cache is not None:
        cache.length = n
    return x


def token_logits(hidden, params):
    """Project decoder (or encoder) states onto the vocabulary; the output
    projection is the token embedding table, transposed."""
    return ad.matmul(ad.matmul(hidden, ad.transpose(params["w_text"])), ad.transpose(params["tok_emb"]))


_ROW_BUDGET = 256  # padded encoder rows per inference batch; bounds the (B, heads, L, L) buffers


def _row_chunks(prompts):
    """Consecutive slices of ``prompts``, in order, each holding as many
    prompts as fit in ``_ROW_BUDGET`` encoder rows once padded to the
    slice's longest stream (at least one prompt, however long)."""
    start, width = 0, 0
    for i, ps in enumerate(prompts):
        width = max(width, ps.token_length + ps.frame_count)
        if i > start and (i + 1 - start) * width > _ROW_BUDGET:
            yield prompts[start:i]
            start, width = i, ps.token_length + ps.frame_count
    if start < len(prompts):
        yield prompts[start:]


def pooled_vectors(prompts, params, config, vocab):
    """Clean pooled encodings of ``prompts`` on frozen parameters, batched
    by ``_row_chunks``: a (len(prompts), model_dim) array."""
    params = freeze_params(params)
    return np.concatenate([np.zeros((0, config.model_dim))] +
                          [encode_batch(chunk, params, config, vocab).pooled.data
                           for chunk in _row_chunks(prompts)])


def generate_batch(prompts, params, config, vocab, max_new=8):
    """Greedy decoding of many prompts, one padded batch per ``_row_chunks``
    slice. Returns one id list per prompt, equal to what ``generate`` gives
    it alone (up to rounding in near-ties of the argmax).

    Every row of a batch is fed one token per step through a shared
    ``DecoderCache``. A row stops recording at its first <eos>, and the
    batch ends when every row has stopped or after ``max_new`` tokens. A
    row still running when its stream would pass ``config.max_len`` raises
    ``ContractError``.
    """
    if max_new < 1:
        raise ContractError("max_new must be at least 1")
    params = freeze_params(params)
    out = []
    for chunk in _row_chunks(prompts):
        enc = encode_batch(chunk, params, config, vocab)
        cache = DecoderCache()
        ids = [[] for _ in chunk]
        running = np.ones(len(chunk), dtype=bool)
        nxt = np.full(len(chunk), vocab.bos_id)
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


def save_checkpoint(path, config, arrays, meta=None):
    """Write a self-contained checkpoint: fixed magic, version, a JSON header
    (model config, metadata, array manifest, payload CRC-32), then raw
    little-endian array bytes. Byte-stable for identical inputs, and atomic:
    the file at ``path`` is either the old one or the complete new one."""
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
    # write a sibling temp file and swap it in, so a crash mid-write never
    # leaves a torn checkpoint or truncates the one being resumed from
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelConfig, arrays dict, meta dict).

    Any malformed header, or a payload that does not match the header's
    CRC-32, is a ``ConfigError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
