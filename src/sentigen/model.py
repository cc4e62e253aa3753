"""Encoder-decoder over unified prompts.

The encoder consumes one stream per sample: token embeddings for the prompt
spans, projected acoustic/visual frames appended after the text, each position
carrying a modality-type embedding, a position embedding, and the dataset
embedding row for the record's dataset. Attention is bidirectional; pad
positions (if any) are dropped from attention, pooling, and position counting,
so where pads sit never changes the outputs. The decoder is autoregressive
with cross-attention into the encoder states, and its output projection is
tied to the token embedding table.

Everything here processes one sample at a time; batching lives in the loss
functions, which average per-sample graphs. That keeps shapes 2-D and the
autodiff rules simple, and is fast enough at desk scale. Multi-head attention
is one fused autodiff op over projected queries, keys and values.

Training and inference share one forward code path. Inference runs it on
``freeze_params`` constants, which record no graph, and greedy decoding feeds
``decoder_states`` one token at a time through a ``DecoderCache`` of keys
and values instead of re-running the decoder over every prefix.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, ShapeError
from .prompt import PromptSequence, flatten_prompt

CHECKPOINT_MAGIC = b"SGCK"
CHECKPOINT_VERSION = 1

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
        if self.heads < 1 or self.model_dim % self.heads != 0:
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
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown model config keys {sorted(extra)}")
        return cls(**obj)


def _xavier(rng, fan_in, fan_out):
    std = float(np.sqrt(2.0 / (fan_in + fan_out)))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def init_params(config, rng):
    """Fresh parameter dict. Iteration order is creation order and is relied
    on for deterministic optimizer updates and checkpoint layout."""
    config.validate()
    d = config.model_dim
    p = {}

    def add(name, arr):
        p[name] = ad.Tensor(arr, requires_grad=True, op="param")

    add("tok_emb", rng.normal(0.0, 0.1, size=(config.vocab_size, config.text_embed_dim)))
    add("w_text", _xavier(rng, config.text_embed_dim, d))
    add("pos_emb", rng.normal(0.0, 0.1, size=(config.max_len, d)))
    add("type_emb", rng.normal(0.0, 0.1, size=(len(_TYPE_INDEX), d)))
    add("dataset_emb", rng.normal(0.0, 0.1, size=(config.num_datasets, d)))
    add("proj_acoustic_w", _xavier(rng, config.acoustic_dim, d))
    add("proj_acoustic_b", np.zeros(d))
    add("proj_visual_w", _xavier(rng, config.visual_dim, d))
    add("proj_visual_b", np.zeros(d))
    add("mask_vec_acoustic", rng.normal(0.0, 0.1, size=(d,)))
    add("mask_vec_visual", rng.normal(0.0, 0.1, size=(d,)))

    def attn_block(prefix):
        for mat in ("wq", "wk", "wv", "wo"):
            add(f"{prefix}_{mat}", _xavier(rng, d, d))
        for vec in ("bq", "bk", "bv", "bo"):
            add(f"{prefix}_{vec}", np.zeros(d))

    def ln_block(prefix):
        add(f"{prefix}_g", np.ones(d))
        add(f"{prefix}_b", np.zeros(d))

    def ffn_block(prefix):
        add(f"{prefix}_w1", _xavier(rng, d, config.ffn_dim))
        add(f"{prefix}_b1", np.zeros(config.ffn_dim))
        add(f"{prefix}_w2", _xavier(rng, config.ffn_dim, d))
        add(f"{prefix}_b2", np.zeros(d))

    for i in range(config.layers_enc):
        attn_block(f"enc{i}_attn")
        ln_block(f"enc{i}_ln1")
        ffn_block(f"enc{i}_ffn")
        ln_block(f"enc{i}_ln2")
    for i in range(config.layers_dec):
        attn_block(f"dec{i}_self")
        ln_block(f"dec{i}_ln1")
        attn_block(f"dec{i}_cross")
        ln_block(f"dec{i}_ln2")
        ffn_block(f"dec{i}_ffn")
        ln_block(f"dec{i}_ln3")
    return p


def freeze_params(params):
    """Constant views of ``params`` sharing their arrays. Ops over them record
    no graph, which is how every inference pass runs."""
    return {name: ad.constant(t.data) for name, t in params.items()}


def _linear(params, prefix, x, w, b):
    return ad.add(ad.matmul(x, params[f"{prefix}_{w}"]), params[f"{prefix}_{b}"])


def _keys_values(params, prefix, x_kv, cache=None, grow=False):
    """Key and value projections of ``x_kv`` for one attention block.

    With a ``cache``, a growing (self-attention) block appends the new rows to
    the keys and values held so far; a fixed (cross-attention) block projects
    once and then reuses what it holds.
    """
    held = cache.kv.get(prefix) if cache is not None else None
    if held is not None and not grow:
        return held
    k = _linear(params, prefix, x_kv, "wk", "bk")
    v = _linear(params, prefix, x_kv, "wv", "bv")
    if held is not None:
        k, v = ad.concat_rows([held[0], k]), ad.concat_rows([held[1], v])
    if cache is not None:
        cache.kv[prefix] = (k, v)
    return k, v


def _attention(params, prefix, x_q, kv, config, mask_bias):
    """Multi-head scaled dot-product attention of ``x_q`` over projected
    ``kv``. ``mask_bias`` is a constant (Lq, Lk) or (1, Lk) array of
    0 / -inf-like entries added to the logits."""
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
    states: ad.Tensor      # (L, model_dim)
    pooled: ad.Tensor      # (model_dim,)
    keep: np.ndarray       # bool (L,), False at pad positions
    token_length: int      # number of token positions (pads included)


def encode(ps, params, config, vocab, mask_plan=None, train=False, rng=None):
    """Run the encoder over one prompt.

    ``mask_plan`` (optional) corrupts the stream for reconstruction training:
    listed token positions are replaced by the mask token, listed modal frames
    by the learned per-modality mask vector. Masking never changes lengths.
    """
    ids = flatten_prompt(ps, vocab)
    n_tok = len(ids)
    n_frames = ps.frame_count
    total = n_tok + n_frames
    if total > config.max_len:
        raise ContractError(f"encoder stream of {total} positions exceeds max length {config.max_len}")
    if n_tok == 0:
        raise ContractError("cannot encode an empty prompt")

    corrupted = list(ids)
    masked_tok = ()
    masked_frames = {}
    if mask_plan is not None:
        masked_tok = tuple(mask_plan.masked_token_positions)
        for pos in masked_tok:
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

    x = parts[0] if len(parts) == 1 else ad.concat_rows(parts)

    keep = np.ones(total, dtype=bool)
    keep[:n_tok] = np.asarray(corrupted) != vocab.pad_id
    # pads do not consume position slots
    pos_ids = np.zeros(total, dtype=np.int64)
    pos_ids[keep] = np.arange(int(keep.sum()))

    x = ad.add(x, ad.embedding(params["type_emb"], type_ids))
    x = ad.add(x, ad.embedding(params["pos_emb"], pos_ids))
    x = ad.add(x, ad.embedding(params["dataset_emb"], [ps.dataset_index] * total))
    x = _maybe_dropout(x, config, train, rng)

    key_bias = np.where(keep, 0.0, _NEG_INF)[None, :]  # broadcast over query rows
    for i in range(config.layers_enc):
        prefix = f"enc{i}_attn"
        a = _attention(params, prefix, x, _keys_values(params, prefix, x), config, key_bias)
        a = _maybe_dropout(a, config, train, rng)
        x = ad.layer_norm(ad.add(x, a), params[f"enc{i}_ln1_g"], params[f"enc{i}_ln1_b"])
        f = _maybe_dropout(_ffn(params, f"enc{i}_ffn", x), config, train, rng)
        x = ad.layer_norm(ad.add(x, f), params[f"enc{i}_ln2_g"], params[f"enc{i}_ln2_b"])

    pooled = ad.masked_mean_rows(x, keep)
    return EncoderOutput(states=x, pooled=pooled, keep=keep, token_length=n_tok)


class DecoderCache:
    """Per-record decoder state for incremental decoding: how many positions
    have been fed, and each attention block's keys and values (the encoder's
    for cross-attention, every fed position's for self-attention)."""

    def __init__(self):
        self.length = 0
        self.kv = {}


def decoder_states(dec_ids, enc_out, params, config, train=False, rng=None, cache=None):
    """Decoder pass over ``dec_ids``; returns their hidden states (len(dec_ids), d).

    Without a ``cache`` the ids are the whole teacher-forced stream. With one,
    they continue the positions already fed through that cache: the first
    call stores the cross-attention keys and values, and each call appends
    the new positions' self-attention keys and values, so a token is never
    run through the decoder twice. Both give the same states up to rounding.
    """
    if not dec_ids:
        raise ContractError("decoder needs at least one input token")
    past = cache.length if cache is not None else 0
    n = past + len(dec_ids)
    if n > config.max_len:
        raise ContractError(f"decoder stream of {n} positions exceeds max length {config.max_len}")
    x = ad.matmul(ad.embedding(params["tok_emb"], dec_ids), params["w_text"])
    x = ad.add(x, ad.embedding(params["pos_emb"], np.arange(past, n)))
    x = _maybe_dropout(x, config, train, rng)

    causal = np.where(np.arange(n)[None, :] <= np.arange(past, n)[:, None], 0.0, _NEG_INF)
    cross = np.where(enc_out.keep, 0.0, _NEG_INF)[None, :]
    for i in range(config.layers_dec):
        prefix = f"dec{i}_self"
        kv = _keys_values(params, prefix, x, cache, grow=True)
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


def generate(ps, params, config, vocab, max_new=8):
    """Greedy decoding: start from <bos>, stop at <eos> or after ``max_new``
    tokens. Returns generated ids (<eos> included when produced). Deterministic.

    Runs on frozen parameters, so it records no graph, and feeds the decoder
    one token per step through a ``DecoderCache``. A stream longer than
    ``config.max_len`` raises ``ContractError`` at the step that overflows.
    """
    if max_new < 1:
        raise ContractError("max_new must be at least 1")
    params = freeze_params(params)
    enc = encode(ps, params, config, vocab, mask_plan=None, train=False)
    cache = DecoderCache()
    out = []
    nxt = vocab.bos_id
    for _ in range(max_new):
        h = decoder_states([nxt], enc, params, config, cache=cache)
        nxt = int(np.argmax(token_logits(h, params).data[0]))
        out.append(nxt)
        if nxt == vocab.eos_id:
            break
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config, arrays, meta=None):
    """Write a self-contained checkpoint: fixed magic, version, a JSON header
    (model config, metadata, array manifest), then raw little-endian array
    bytes. Byte-stable for identical inputs."""
    manifest = []
    blobs = []
    offset = 0
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
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_json(),
        "meta": meta or {},
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelConfig, arrays dict, meta dict).

    Any malformed header or payload is a ``ConfigError``."""
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
        config = ModelConfig.from_json(header["config"]).validate()
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
    any missing name or shape mismatch."""
    rng = np.random.default_rng(0)
    fresh = init_params(config, rng)
    params = {}
    for name, t in fresh.items():
        key = f"param/{name}"
        if key not in arrays:
            raise ShapeError(f"checkpoint is missing parameter {name!r}")
        stored = arrays[key]
        if tuple(stored.shape) != t.shape:
            raise ShapeError(
                f"checkpoint parameter {name!r} has shape {tuple(stored.shape)}, expected {t.shape}")
        params[name] = ad.Tensor(np.asarray(stored, dtype=np.float64), requires_grad=True, op="param")
    extra = [k for k in arrays if k.startswith("param/") and k[len("param/"):] not in fresh]
    if extra:
        raise ShapeError(f"checkpoint carries unknown parameters {sorted(extra)}")
    return params
