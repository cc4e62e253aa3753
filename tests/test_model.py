import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import sentigen.autodiff as ad
import sentigen.model as model
from sentigen.cli import main
from sentigen.errors import ConfigError, ContractError, SentigenError, ShapeError
from sentigen.masking import MaskPlan, apply_modal_setting, sample_mcm_plan, sample_modal_setting
from sentigen.model import (DecoderCache, ModelConfig, decoder_states, encode, freeze_params,
                            generate, init_params, load_checkpoint, param_layout,
                            params_from_arrays, params_to_arrays, save_checkpoint, token_logits)
from sentigen.prompt import build_prompt

from conftest import (attention_ref, block_projections, cross_entropy, matmul, reshape, small_config,
                      sum_of, transpose)


@pytest.fixture(scope="module")
def world(toy, toy_model):
    return toy["vocab"], toy["registry"], toy["records"], toy_model["config"], toy_model["params"]


def pick(records, dataset):
    return next(r for r in records if r.dataset_id == dataset)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(model_dim=10, heads=4).validate()  # not divisible
    with pytest.raises(ConfigError):
        ModelConfig(model_dim=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dropout_rate=1.0).validate()
    for field in ("text_embed_dim", "acoustic_dim", "visual_dim", "ffn_dim", "heads", "max_len"):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: 0}).validate()
    for field in ("layers_enc", "layers_dec"):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: -1}).validate()
    with pytest.raises(ConfigError):
        ModelConfig.from_json({"model_dim": 8, "mystery": 1})
    for bad in ({"heads": "4"}, {"heads": 4.0}, {"model_dim": False}, {"dropout_rate": None}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ModelConfig.from_json(bad)
    with pytest.raises(ConfigError):
        ModelConfig.from_json([("heads", 4)])
    cfg = ModelConfig.from_json(ModelConfig().to_json())
    assert cfg == ModelConfig()
    assert ModelConfig.from_json({"dropout_rate": 0}).dropout_rate == 0


# ---------------------------------------------------------------------------
# encoder


def test_encode_shapes_and_stream_layout(world):
    vocab, registry, records, config, params = world
    r = pick(records, "mosi-toy")
    ps = build_prompt(r, vocab, registry, config.max_len)
    enc = encode(ps, params, config, vocab)
    total = len(ps.ids) + ps.frame_count
    assert enc.states.data.shape == (total, config.model_dim)
    assert enc.pooled.data.shape == (1, config.model_dim)
    assert np.array_equal(enc.offsets, [0, total])


def test_pad_in_stream_is_contract_error(world):
    """A stream holds no pad token: one at the end or inside a prompt's
    query, alone or in one sample of a batch, is a ContractError."""
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "absa-toy"), vocab, registry, config.max_len)
    other = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    pad = vocab.pad_id
    tail = replace(ps, x_tokens=ps.x_tokens + (pad, pad))
    mid = replace(ps, x_tokens=ps.x_tokens[:2] + (pad,) + ps.x_tokens[2:])
    for padded in (tail, mid):
        with pytest.raises(ContractError, match="pad"):
            encode(padded, params, config, vocab)
        with pytest.raises(ContractError, match="pad"):
            model.encode_batch([other, padded], params, config, vocab)


def test_distinct_dataset_indices_change_pooled(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    other = replace(ps, dataset_index=(ps.dataset_index + 1) % config.num_datasets)
    a = encode(ps, params, config, vocab).pooled.data
    b = encode(other, params, config, vocab).pooled.data
    assert not np.allclose(a, b)


def test_encode_rejects_overflow_and_bad_masks(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    huge = replace(ps, x_tokens=ps.x_tokens * 40)
    with pytest.raises(ContractError):
        encode(huge, params, config, vocab)

    bad = MaskPlan(masked_token_positions=(len(ps.ids) + 5,),
                   masked_modal_frames={})
    with pytest.raises(IndexError):
        encode(ps, params, config, vocab, mask_plan=bad)
    with pytest.raises(ContractError):
        encode(replace(ps, z_tokens=(), y_tokens=(), x_context=(), x_tokens=()), params, config, vocab)

    modal = build_prompt(pick(records, "mosi-toy"), vocab, registry, config.max_len)
    frames = modal.modal_segments[0]
    bad = MaskPlan(masked_token_positions=(), masked_modal_frames={frames.kind: (frames.features.shape[0],)})
    with pytest.raises(IndexError):
        encode(modal, params, config, vocab, mask_plan=bad)
    wide = replace(frames, features=np.zeros((2, frames.features.shape[1] + 1)))
    with pytest.raises(ShapeError):
        encode(replace(modal, modal_segments=(wide,)), params, config, vocab)


def test_mask_plan_substitutes_learned_vectors(world):
    vocab, registry, records, config, params = world
    r = pick(records, "meld-toy")
    ps = build_prompt(r, vocab, registry, config.max_len)
    plan = MaskPlan(masked_token_positions=(len(ps.ids) - 1,),
                    masked_modal_frames={"acoustic": (0,)})
    clean = encode(ps, params, config, vocab)
    corrupted = encode(ps, params, config, vocab, mask_plan=plan)
    assert not np.array_equal(clean.states.data, corrupted.states.data)
    # masking never changes lengths
    assert corrupted.states.data.shape == clean.states.data.shape


# ---------------------------------------------------------------------------
# decoder


def test_decoder_is_causal(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    enc = encode(ps, params, config, vocab)
    ids_a = [[vocab.bos_id, 20, 21, 22]]
    ids_b = [[vocab.bos_id, 20, 30, 31]]  # diverges from position 2 on
    ha = decoder_states(ids_a, enc, params, config).data
    hb = decoder_states(ids_b, enc, params, config).data
    assert np.array_equal(ha[:2], hb[:2])
    assert not np.array_equal(ha[2:], hb[2:])
    with pytest.raises(ContractError):
        decoder_states(np.zeros((1, 0)), enc, params, config)


def test_logits_projection_is_tied(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    enc = encode(ps, params, config, vocab)
    h = decoder_states([[vocab.bos_id]], enc, params, config)
    logits = token_logits(h, params)
    manual = h.data @ params["w_text"].data.T @ params["tok_emb"].data.T
    assert logits.shape == (1, config.vocab_size)
    assert np.allclose(logits, manual, atol=1e-12)


def test_decode_logits_equal_per_step_transposes(world, monkeypatch):
    """The logits of every decode step, whose ``token_logits`` call
    transposes the output weights itself, equal bit for bit the logits of
    the same call on the trainable parameters, the products through
    transposed copies made once for all steps; and a training loss's
    ``token_loss`` over the step's states is the cross-entropy of those
    logits, bit for bit."""
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records[:5]]
    real, steps = model.token_logits, []
    w_text, tok_emb = (transpose(ad.constant(params[name].data)) for name in ("w_text", "tok_emb"))

    def checked(hidden, p):
        out = real(hidden, p)
        assert type(out) is np.ndarray and np.array_equal(out, real(hidden, params))
        assert np.array_equal(out, matmul(matmul(hidden, w_text), tok_emb).data)
        targets = np.arange(len(out)) % out.shape[1]
        trained = ad.token_loss(hidden, params["w_text"], params["tok_emb"], targets, 1.0)
        assert trained.data.tobytes() == cross_entropy(ad.constant(out), targets).data.tobytes()
        steps.append(out)
        return out

    monkeypatch.setattr(model, "token_logits", checked)
    model.generate_batch(prompts, params, config, vocab, max_new=4)
    assert steps


def test_generate_is_deterministic_and_bounded(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "meld-toy"), vocab, registry, config.max_len)
    a = generate(ps, params, config, vocab, max_new=5)
    b = generate(ps, params, config, vocab, max_new=5)
    assert a == b
    assert 1 <= len(a) <= 5
    if vocab.eos_id in a:
        assert a[-1] == vocab.eos_id
    with pytest.raises(ContractError):
        generate(ps, params, config, vocab, max_new=0)


def test_cached_decoder_matches_teacher_forced(world):
    vocab, registry, records, config, params = world
    frozen = freeze_params(params)
    ids = np.array([[vocab.bos_id, 20, 21, 5, 22, 30, 31]])
    n_ids = ids.shape[1]
    for dataset in ("sst-toy", "meld-toy", "mosi-toy"):
        ps = build_prompt(pick(records, dataset), vocab, registry, config.max_len)
        enc = encode(ps, frozen, config, vocab)
        full = decoder_states(ids, enc, params, config).data
        for chunks in ([1] * n_ids, [2, 1, 3, 1]):
            cache = DecoderCache(frozen, enc, config, n_ids)
            fed = 0
            for n in chunks:
                rows = decoder_states(ids[:, fed:fed + n], enc, frozen, config, cache=cache).data
                assert np.max(np.abs(rows - full[fed:fed + n])) <= 1e-12
                fed += n
            assert cache.length == n_ids


def two_layer_model(world):
    """The world's model with two decoder layers, frozen."""
    vocab, registry, records, config, params = world
    config = replace(config, layers_dec=2)
    return config, freeze_params(init_params(config, np.random.default_rng(7)))


def test_batched_cached_decoder_matches_teacher_forced(world):
    """A batch of prompts with uneven encoder lengths, text-only and
    multimodal, fed through one cache a token at a time or in uneven
    chunks, gets every sample the states of a teacher-forced pass."""
    vocab, registry, records, _, _ = world
    config, frozen = two_layer_model(world)
    prompts = [build_prompt(pick(records, d), vocab, registry, config.max_len)
               for d in ("sst-toy", "meld-toy", "mosi-toy", "absa-toy")]
    assert len({stream_length(ps) for ps in prompts}) == len(prompts)
    assert len({ps.frame_count > 0 for ps in prompts}) == 2
    enc = model.encode_batch(prompts, frozen, config, vocab)
    ids = np.array([[vocab.bos_id, 20 + i, 21, 5, 22 - i, 30, 31 + i] for i in range(len(prompts))])
    b, n = ids.shape
    full = decoder_states(ids, enc, frozen, config).data.reshape(b, n, -1)
    for chunks in ([1] * n, [2, 1, 3, 1]):
        cache = DecoderCache(frozen, enc, config, n)
        fed = 0
        for m in chunks:
            rows = decoder_states(ids[:, fed:fed + m], enc, frozen, config, cache=cache).data
            assert np.max(np.abs(rows.reshape(b, m, -1) - full[:, fed:fed + m])) <= 1e-12
            fed += m
        assert cache.length == n


def test_inference_computes_no_gelu_slope(world, monkeypatch):
    """No forward computes a GELU slope, in training or in inference: a
    slope kernel that raises is never reached by ``ffn`` over a
    constant or over an input that needs a gradient, at one row block or
    several, nor by ``generate_batch`` on frozen parameters, nor by an
    encode and a training-mode decoder pass that record a graph. Only the
    backward through that graph reaches it."""
    vocab, registry, records, config, params = world

    def refuse(*args):
        raise AssertionError("gelu computed a slope")

    monkeypatch.setattr(ad, "_gelu_slope_rows", refuse)
    rng = np.random.default_rng(5)
    weights = [ad.constant(rng.normal(size=shape)) for shape in ((8, 8), (8,), (8, 4), (4,))]
    for rows in (3, 3 * (ad._BLOCK // 8) + 1):
        x = rng.normal(size=(rows, 8))
        assert ad.ffn(ad.constant(x), *weights).node is None
        assert ad.ffn(ad.Tensor(x, requires_grad=True), *weights).node is not None
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records[:6]]
    assert len(model.generate_batch(prompts, freeze_params(params), config, vocab, max_new=4)) == 6
    enc = encode(prompts[0], params, config, vocab)
    states = decoder_states([[1, 2, 3]], enc, params, config, rng=np.random.default_rng(0))
    assert states.node is not None
    with pytest.raises(AssertionError, match="slope"):
        ad.backward(sum_of(states))


def test_cached_decoder_bounds(world):
    """A cache takes at most its capacity's positions, and only frozen
    parameters: no gradient could flow through its buffers. A stream past
    ``max_len`` is refused, fed whole or through a cache with room."""
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    frozen = freeze_params(params)
    enc = encode(ps, frozen, config, vocab)
    cache = DecoderCache(frozen, enc, config, 2)
    decoder_states([[vocab.bos_id, 20]], enc, frozen, config, cache=cache)
    with pytest.raises(ContractError):
        decoder_states([[21]], enc, frozen, config, cache=cache)
    assert cache.length == 2
    past = [[vocab.bos_id] * (config.max_len + 1)]
    for cache in (None, DecoderCache(frozen, enc, config, config.max_len + 1)):
        with pytest.raises(ContractError, match="exceeds max length"):
            decoder_states(past, enc, frozen, config, cache=cache)
    enc = encode(ps, params, config, vocab)
    with pytest.raises(ContractError):
        decoder_states([[vocab.bos_id]], enc, params, config,
                       cache=DecoderCache(params, enc, config, 1))


def test_a_cache_refuses_another_encoding_of_its_batch_size(world):
    """A cache serves the encoding it was made for alone: fed another
    encoding of the same batch size, even an equal one, it is a
    ContractError before anything is fed, and the cache then still gives
    its own encoding the teacher-forced states."""
    vocab, registry, records, _, _ = world
    config, frozen = two_layer_model(world)
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records[:4]]
    enc = model.encode_batch(prompts[:2], frozen, config, vocab)
    ids = np.array([[vocab.bos_id, 20, 21], [vocab.bos_id, 22, 5]])
    full = decoder_states(ids, enc, frozen, config).data.reshape(2, 3, -1)
    cache = DecoderCache(frozen, enc, config, 3)
    decoder_states(ids[:, :1], enc, frozen, config, cache=cache)
    for other in (model.encode_batch(prompts[2:], frozen, config, vocab),
                  model.encode_batch(prompts[:2], frozen, config, vocab)):
        with pytest.raises(ContractError, match="another encoding"):
            decoder_states(ids[:, 1:], other, frozen, config, cache=cache)
        assert cache.length == 1
    rows = decoder_states(ids[:, 1:], enc, frozen, config, cache=cache).data.reshape(2, 2, -1)
    assert np.max(np.abs(rows - full[:, 1:])) <= 1e-12


def test_cache_fed_another_batch_and_dropout_without_rng_are_refused(world, tmp_path):
    """A cache serves the encoding it was made for: a call with another
    batch's is a ContractError. ``encode``'s training pass needs its
    RNG stream. A checkpoint array of a dtype the format lacks is refused
    before anything is written."""
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records[:3]]
    frozen = freeze_params(params)
    enc = model.encode_batch(prompts[:2], frozen, config, vocab)
    cache = DecoderCache(frozen, enc, config, 4)
    decoder_states([[vocab.bos_id]] * 2, enc, frozen, config, cache=cache)
    with pytest.raises(ContractError, match="another encoding"):
        decoder_states([[vocab.bos_id]] * 3, model.encode_batch(prompts, frozen, config, vocab),
                       frozen, config, cache=cache)
    with pytest.raises(ContractError, match="RNG"):
        model.encode(prompts[0], params, replace(config, dropout_rate=0.1), vocab, train=True)
    path = tmp_path / "x.ckpt"
    with pytest.raises(ContractError, match="unsupported dtype"):
        model.save_checkpoint(path, config, {"x": np.zeros(2, dtype=np.int32)})
    assert not path.exists()


def test_a_training_pass_draws_from_its_stream_only_when_dropout_is_on(world):
    """A pass handed a dropout stream drops units at the config's rate: at
    rate 0 it leaves the stream's state untouched and gives the states of a
    pass with no stream; at 0.1 it advances the state."""
    vocab, registry, records, config, params = world
    ps = build_prompt(records[0], vocab, registry, config.max_len)
    clean = model.encode_batch([ps], params, config, vocab)
    for rate, draws in ((0.0, False), (0.1, True)):
        cfg, rng = replace(config, dropout_rate=rate), np.random.default_rng(7)
        before = rng.bit_generator.state
        enc = model.encode_batch([ps], params, cfg, vocab, rng=rng)
        h = decoder_states([[vocab.bos_id, 20]], enc, params, cfg, rng=rng)
        assert (rng.bit_generator.state != before) == draws, rate
        same = np.array_equal(enc.states.data, clean.states.data)
        assert same != draws and h.shape == (2, config.model_dim)


def straddles(prompts):
    """Whether, were the whole of ``prompts`` cut into ``_row_chunks``
    slices at the current sizes, some decode group would span several
    slices and some slice several groups. ``generate_batch`` slices each
    group on its own instead, so no slice holds two groups' prompts."""
    sizes = [len(chunk) for chunk in model._row_chunks(prompts)]
    cuts = set(np.cumsum(sizes).tolist())
    groups = set(range(model._DECODE_ROWS, len(prompts), model._DECODE_ROWS)) | {len(prompts)}
    group_over_cut = any(cut % model._DECODE_ROWS and cut < len(prompts) for cut in cuts)
    slice_over_group = any(g not in cuts for g in groups)
    return group_over_cut and slice_over_group


def test_greedy_decoding_lays_out_once_per_chunk(world, monkeypatch):
    """Structural guard: ``generate_batch`` decodes groups of at most
    ``_DECODE_ROWS`` prompts and encodes each group's ``_row_chunks``
    slices once, no slice holding prompts of two groups. No decoding step
    concatenates rows, and each group splits the encoder's keys and values
    into heads once per decoder layer, when its cache is made, not at
    every step nor per slice."""
    vocab, registry, records, _, _ = world
    config, frozen = two_layer_model(world)
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    monkeypatch.setattr(model, "_ROW_BUDGET", 4 * max(stream_length(ps) for ps in prompts))
    monkeypatch.setattr(model, "_DECODE_ROWS", 3)
    assert straddles(prompts)
    counts = {"steps": 0, "concat_rows": 0, "head_layout": 0, "encode_batch": 0}
    decoding, rows, encoded = [], [], []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += bool(decoding) or name == "encode_batch"
            if name == "encode_batch":
                encoded.append(args[0])
            return fn(*args, **kwargs)
        return wrapped

    def stepping(dec_ids, *args, **kwargs):
        counts["steps"] += 1
        rows.append(len(dec_ids))
        decoding.append(True)
        try:
            return real_step(dec_ids, *args, **kwargs)
        finally:
            decoding.pop()

    def making(*args, **kwargs):
        decoding.append(True)
        try:
            return real_cache(*args, **kwargs)
        finally:
            decoding.pop()

    real_step, real_cache = model.decoder_states, model.DecoderCache
    monkeypatch.setattr(model, "decoder_states", stepping)
    monkeypatch.setattr(model, "DecoderCache", making)
    monkeypatch.setattr(model, "encode_batch", counted("encode_batch", model.encode_batch))
    for name in ("concat_rows", "head_layout"):
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    model.generate_batch(prompts, frozen, config, vocab, max_new=6)
    chunks = len(list(model._row_chunks(prompts)))
    groups = -(-len(prompts) // model._DECODE_ROWS)
    assert chunks > 1 and groups > chunks and counts["steps"] > 2 * groups
    group_of = {id(ps): i // model._DECODE_ROWS for i, ps in enumerate(prompts)}
    assert counts["encode_batch"] == sum(
        len(list(model._row_chunks(prompts[start:start + model._DECODE_ROWS])))
        for start in range(0, len(prompts), model._DECODE_ROWS))
    assert all(len({group_of[id(ps)] for ps in chunk}) == 1 for chunk in encoded)
    assert max(rows) == model._DECODE_ROWS
    assert counts["concat_rows"] == 0
    assert counts["head_layout"] == config.layers_dec * groups


def perturbed_models(world):
    """Random and perturbed parameter sets. In each boosted set the <eos>
    output row is 1.5x the row of a token the perturbed set emits first, so
    its answers end early."""
    vocab, registry, records, config, params = world
    ps = build_prompt(records[0], vocab, registry, config.max_len)
    out = [params]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        noisy = {n: ad.constant(t.data + rng.normal(0.0, 0.3, size=t.shape))
                 for n, t in params.items()}
        table = noisy["tok_emb"].data.copy()
        table[vocab.eos_id] = 1.5 * table[generate(ps, noisy, config, vocab, max_new=1)[0]]
        out += [noisy, {**noisy, "tok_emb": ad.constant(table)}]
    return out


def test_generate_is_greedy_over_its_own_output(world):
    """Fuzz: each generated id is the argmax of a teacher-forced pass over
    the ids before it, and decoding stops exactly at the first <eos>."""
    vocab, registry, records, config, params = world
    max_new = 6
    early = 0
    for p in perturbed_models(world):
        for r in records[::3]:
            ps = build_prompt(r, vocab, registry, config.max_len)
            ids = generate(ps, p, config, vocab, max_new=max_new)
            enc = encode(ps, p, config, vocab)
            h = decoder_states([[vocab.bos_id] + ids[:-1]], enc, p, config)
            assert list(np.argmax(token_logits(h, p), axis=1)) == ids
            assert vocab.eos_id not in ids[:-1]
            assert len(ids) == max_new or ids[-1] == vocab.eos_id
            early += len(ids) < max_new
    assert early > 0


def test_generate_overflow_is_contract_error(world, monkeypatch):
    """A decode budget one past ``max_len`` is refused before any decoder
    step runs; a budget of exactly ``max_len`` decodes, one decoder call a
    token, the ids a longer ``max_len`` gives."""
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    short = replace(config, max_len=stream_length(ps))
    calls, real = [], model.decoder_states
    monkeypatch.setattr(model, "decoder_states", lambda *a, **k: calls.append(1) or real(*a, **k))
    with pytest.raises(ContractError, match="max_new"):
        generate(ps, params, short, vocab, max_new=short.max_len + 1)
    assert not calls
    ids = generate(ps, params, short, vocab, max_new=short.max_len)
    assert len(calls) == len(ids) and 0 < len(ids) <= short.max_len
    assert ids == generate(ps, params, config, vocab, max_new=short.max_len)


def stream_length(ps):
    return len(ps.ids) + ps.frame_count


def test_encode_batch_matches_per_prompt(world):
    """Every sample of a packed batch gets the states and pooled vector
    that ``encode`` gives it alone; its rows follow the previous sample's,
    with no pad rows between them."""
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    lengths = [stream_length(ps) for ps in prompts]
    assert len(set(lengths)) > 1
    batch = model.encode_batch(prompts, params, config, vocab)
    offsets = batch.offsets
    assert np.array_equal(offsets, np.cumsum([0] + lengths))
    assert batch.states.shape == (sum(lengths), config.model_dim)
    assert batch.pooled.shape == (len(prompts), config.model_dim)
    for i, ps in enumerate(prompts):
        one = encode(ps, params, config, vocab)
        rows = batch.states.data[offsets[i]:offsets[i + 1]]
        assert np.max(np.abs(rows - one.states.data)) <= 1e-12
        assert np.max(np.abs(batch.pooled.data[i] - one.pooled.data[0])) <= 1e-12
        assert np.array_equal(one.offsets, [0, lengths[i]])
    chunked = model.pooled_vectors(prompts, params, config, vocab)
    assert np.max(np.abs(chunked - batch.pooled.data)) <= 1e-12
    assert model.pooled_vectors([], params, config, vocab).shape == (0, config.model_dim)
    with pytest.raises(ContractError):
        model.encode_batch([], params, config, vocab)
    with pytest.raises(ShapeError):
        decoder_states([[vocab.bos_id]] * 2, batch, params, config)


def reference_encode(ps, plan, params, config, vocab):
    """One prompt through the encoder, its input rows built segment by
    segment: the token rows, then each modal segment's projection with its
    masked frames swapped for the mask vector by a row gather. Returns
    (states, pooled)."""
    d = config.model_dim
    ids = list(ps.ids)
    for pos in plan.masked_token_positions:
        ids[pos] = vocab.mask_id
    parts = [matmul(ad.embedding(params["tok_emb"], ids), params["w_text"])]
    types = [0] * len(ids)
    for seg in ps.modal_segments:
        feats = ad.constant(np.asarray(seg.features, dtype=np.float64))
        proj = ad.linear(feats, params[f"proj_{seg.kind}_w"], params[f"proj_{seg.kind}_b"])
        rows = feats.shape[0]
        hit = list(plan.masked_modal_frames.get(seg.kind, ()))
        if hit:
            tiled = matmul(ad.constant(np.ones((rows, 1))),
                           reshape(params[f"mask_vec_{seg.kind}"], (1, d)))
            pick = np.arange(rows)
            pick[hit] += rows  # a masked frame's row comes from the tiled mask vector
            proj = ad.embedding(ad.concat_rows([proj, tiled]), pick)
        parts.append(proj)
        types += [model._TYPE_INDEX[seg.kind]] * rows
    n = len(types)
    x = ad.concat_rows(parts)
    x = ad.add(x, ad.embedding(params["type_emb"], types))
    x = ad.add(x, ad.embedding(params["pos_emb"], np.arange(n)))
    x = ad.add(x, ad.embedding(params["dataset_emb"], [ps.dataset_index] * n))
    for i in range(config.layers_enc):
        prefix = f"enc{i}_attn"
        a = attention_ref(x, x, *block_projections(params, prefix), config.heads, [0, n], [0, n])
        x = ad.layer_norm(ad.add(x, a), params[f"enc{i}_ln1_g"], params[f"enc{i}_ln1_b"])
        f = model._ffn(params, f"enc{i}_ffn", x)
        x = ad.layer_norm(ad.add(x, f), params[f"enc{i}_ln2_g"], params[f"enc{i}_ln2_b"])
    return x, reshape(matmul(ad.constant(np.full((1, n), 1.0 / n)), x), (d,))


def grads_of(loss, params):
    grads = ad.backward(loss)
    return {n: grads.get(t) for n, t in params.items()}


def test_batch_input_gather_matches_per_sample_reference(world):
    """Fuzz, dropout off: ``encode_batch`` states, pooled rows and every
    parameter gradient equal a per-sample reference within 1e-12, over mixed
    modal settings, mask rates 0 / 0.3 / 1, batches of one and batches
    without acoustic or visual frames. A parameter behind no
    input row has no gradient: a projection when its modality has no
    frames, a mask vector when no frame of its modality is masked."""
    vocab, registry, records, config, params = world
    config = replace(config, layers_enc=2)
    params = init_params(config, np.random.default_rng(3))
    rng = np.random.default_rng(99)
    absent = set()
    for trial in range(24):
        size = 1 if trial % 6 == 0 else int(rng.integers(2, 7))
        chosen = [records[int(i)] for i in rng.choice(len(records), size=size, replace=False)]
        prompts = [build_prompt(r, vocab, registry, config.max_len) for r in chosen]
        kinds = (None, (), ("acoustic",), ("visual",))[trial % 4]
        prompts = [apply_modal_setting(ps, sample_modal_setting(ps, rng)) if kinds is None else
                   replace(ps, modal_segments=tuple(s for s in ps.modal_segments if s.kind in kinds))
                   for ps in prompts]
        plans = [sample_mcm_plan(ps, (0.0, 0.3, 1.0)[trial % 3], rng) for ps in prompts]
        enc = model.encode_batch(prompts, params, config, vocab, mask_plans=plans)
        offsets = enc.offsets
        lengths = [stream_length(ps) for ps in prompts]
        assert np.array_equal(offsets, np.cumsum([0] + lengths))
        weights = rng.normal(size=enc.states.shape)
        lift = rng.normal(size=enc.pooled.shape)
        got = grads_of(ad.add(sum_of(enc.states, ad.constant(weights)),
                              sum_of(enc.pooled, ad.constant(lift))), params)
        total = None
        for i, (ps, plan) in enumerate(zip(prompts, plans)):
            states, pooled = reference_encode(ps, plan, params, config, vocab)
            rows = enc.states.data[offsets[i]:offsets[i + 1]]
            assert np.max(np.abs(rows - states.data)) <= 1e-12
            assert np.max(np.abs(enc.pooled.data[i] - pooled.data)) <= 1e-12
            part = ad.add(sum_of(states, ad.constant(weights[offsets[i]:offsets[i + 1]])),
                          sum_of(pooled, ad.constant(lift[i])))
            total = part if total is None else ad.add(total, part)
        want = grads_of(total, params)
        for name in params:
            assert (got[name] is None) == (want[name] is None), name
            if got[name] is not None:
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12, (trial, name)
        for kind in ("acoustic", "visual"):
            has_frames = any(s.kind == kind for ps in prompts for s in ps.modal_segments)
            has_masked = any(plan.masked_modal_frames.get(kind) for plan in plans)
            assert (got[f"proj_{kind}_w"] is None) == (not has_frames)
            assert (got[f"mask_vec_{kind}"] is None) == (not has_masked)
            if not has_frames:
                absent.add(kind)
        if trial % 3 == 2 and any(ps.modal_segments for ps in prompts):
            assert all(len(plan.masked_modal_frames.get(s.kind, ())) == s.features.shape[0]
                       for ps, plan in zip(prompts, plans) for s in ps.modal_segments)
    assert absent == {"acoustic", "visual"}


def test_encoder_input_graph_does_not_grow_with_batch(world):
    """The graph up to the first encoder layer is a fixed set of ops: one
    token gather, one projection per modality, one gather of the batch's
    rows, whatever the batch size."""
    vocab, registry, records, config, params = world
    config = replace(config, layers_enc=0)
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    both = [ps for ps in prompts if {s.kind for s in ps.modal_segments} == {"acoustic", "visual"}]
    assert both
    counts = []
    for size in (1, 4, 16):
        batch = [both[i % len(both)] for i in range(size)]
        plans = [MaskPlan(masked_token_positions=(len(ps.ids) - 1,),
                          masked_modal_frames={"acoustic": (0,), "visual": (0,)}) for ps in batch]
        enc = model.encode_batch(batch, params, config, vocab, mask_plans=plans)
        seen, stack = set(), [enc.states]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
        counts.append(len(seen))
    assert counts[0] == counts[1] == counts[2], counts


def test_encoder_rows_are_packed(world, monkeypatch):
    """On a batch of uneven streams, every per-row op of the encoder graph
    (each ``ffn`` and ``layer_norm``) runs on N = the summed stream
    lengths rows, not batch size times the longest. A vertex holds no
    output, so each one's output shape is noted when its op records it."""
    vocab, registry, records, config, params = world
    config = replace(config, layers_enc=2)
    prompts = [build_prompt(pick(records, d), vocab, registry, config.max_len)
               for d in ("sst-toy", "absa-toy", "meld-toy", "mosi-toy")]
    lengths = [stream_length(ps) for ps in prompts]
    assert len(set(lengths)) > 1
    params = init_params(config, np.random.default_rng(5))
    real, shapes = ad._make, {}  # id of each vertex -> its output's shape

    def make(*args):
        out = real(*args)
        if out.node is not None:
            shapes[id(out.node)] = out.shape
        return out

    monkeypatch.setattr(ad, "_make", make)
    enc = model.encode_batch(prompts, params, config, vocab)
    seen, stack, rows = set(), [enc.states], {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            shape = node.shape if isinstance(node, ad.Tensor) else shapes[id(node)]
            rows.setdefault(node.op, []).append(shape[0])
    assert len(rows["ffn"]) == 2 and len(rows["layer_norm"]) == 4
    assert set(rows["ffn"]) | set(rows["layer_norm"]) == {sum(lengths)}


def test_row_chunks_stay_within_budget(world, monkeypatch):
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records] * 30
    for budget in (model._ROW_BUDGET, 3 * max(stream_length(ps) for ps in prompts), 10):
        monkeypatch.setattr(model, "_ROW_BUDGET", budget)
        chunks = list(model._row_chunks(prompts))
        assert [ps for chunk in chunks for ps in chunk] == prompts
        fed = 0
        for chunk in chunks:
            rows = len(chunk) * max(stream_length(ps) for ps in chunk)
            assert rows <= budget or len(chunk) == 1
            fed += len(chunk)
            if fed < len(prompts):  # the next prompt would not have fit
                grown = chunk + [prompts[fed]]
                assert len(grown) * max(stream_length(ps) for ps in grown) > budget
        assert len(chunks) > 1


def test_generate_batch_matches_per_record(world):
    """Fuzz: batched greedy decoding over consecutive mixed-dataset chunks
    gives every record the ids per-record ``generate`` gives it. Chunks mix
    rows that stop at an early <eos> with rows that run to ``max_new``, and
    text-only rows with multimodal rows of other lengths."""
    vocab, registry, records, config, params = world
    max_new = 6
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    mixed = 0
    for p in perturbed_models(world):
        alone = [generate(ps, p, config, vocab, max_new=max_new) for ps in prompts]
        for size in (2, 5, 7, len(prompts)):
            for start in range(0, len(prompts), size):
                chunk = slice(start, start + size)
                assert model.generate_batch(prompts[chunk], p, config, vocab,
                                            max_new=max_new) == alone[chunk]
                ids = alone[chunk]
                mixed += (any(len(x) < max_new for x in ids)
                          and any(len(x) == max_new for x in ids)
                          and len({stream_length(ps) for ps in prompts[chunk]}) > 1
                          and len({ps.frame_count > 0 for ps in prompts[chunk]}) == 2)
    assert mixed > 0
    assert model.generate_batch([], params, config, vocab) == []


def test_generate_batch_matches_per_record_across_groups(world, monkeypatch):
    """Fuzz: with decode groups and encoder slices shrunk to sizes at which
    slices of the whole list would straddle groups (``straddles``), and at
    which a group is encoded in one slice or in several, batched greedy
    decoding still gives every record the ids per-record ``generate``
    gives it, on models whose answers end at an early <eos> and on ones
    that run to ``max_new``."""
    vocab, registry, records, config, params = world
    max_new = 6
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    longest = max(stream_length(ps) for ps in prompts)
    sizes = [(3, 2 * longest), (3, 5 * longest), (4, 3 * longest), (7, 2 * longest), (2, 1)]
    straddled = 0
    for p in perturbed_models(world):
        alone = [generate(ps, p, config, vocab, max_new=max_new) for ps in prompts]
        for rows, budget in sizes:
            monkeypatch.setattr(model, "_DECODE_ROWS", rows)
            monkeypatch.setattr(model, "_ROW_BUDGET", budget)
            for start in (0, 1):
                straddled += straddles(prompts[start:])
                assert model.generate_batch(prompts[start:], p, config, vocab,
                                            max_new=max_new) == alone[start:]
            assert model.generate_batch([], p, config, vocab) == []
    assert straddled > 0


def test_join_encodings_concatenates_and_shifts(world, monkeypatch):
    """Joined packed outputs hold the parts' states and pooled rows in
    order, with each part's offsets shifted past the rows before it, and
    the decoder reads every sample of the join as it reads it in its own
    part. Each decode group's encoding, joined from its own ``_row_chunks``
    slices, is its prompts' encoding. A join of no parts is a ContractError."""
    vocab, registry, records, _, _ = world
    config, frozen = two_layer_model(world)
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records[:9]]
    assert len({stream_length(ps) for ps in prompts}) > 1
    parts = [model.encode_batch(prompts[lo:hi], frozen, config, vocab)
             for lo, hi in ((0, 1), (1, 5), (5, 9))]
    joined = model.join_encodings(parts)
    assert np.array_equal(joined.states.data, np.concatenate([e.states.data for e in parts]))
    assert np.array_equal(joined.pooled.data, np.concatenate([e.pooled.data for e in parts]))
    lengths = [stream_length(ps) for ps in prompts]
    assert joined.offsets.tolist() == np.concatenate(([0], np.cumsum(lengths))).tolist()
    assert model.join_encodings(parts[1:2]) is parts[1]

    ids = np.array([[vocab.bos_id, 20 + i, 21, 5 + i] for i in range(len(prompts))])
    whole = decoder_states(ids, joined, frozen, config).data
    alone = np.concatenate([decoder_states(ids[lo:hi], e, frozen, config).data
                            for e, (lo, hi) in zip(parts, ((0, 1), (1, 5), (5, 9)))])
    assert np.max(np.abs(whole - alone)) <= 1e-12

    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    longest = max(stream_length(ps) for ps in prompts)
    monkeypatch.setattr(model, "_DECODE_ROWS", 3)
    monkeypatch.setattr(model, "_ROW_BUDGET", 4 * longest)
    assert straddles(prompts)
    sliced = 0
    for budget in (4 * longest, 2 * longest):  # each group in one slice, then in several
        monkeypatch.setattr(model, "_ROW_BUDGET", budget)
        for start in range(0, len(prompts), model._DECODE_ROWS):
            group = prompts[start:start + model._DECODE_ROWS]
            chunks = list(model._row_chunks(group))
            sliced += len(chunks) > 1
            enc = model.join_encodings([model.encode_batch(chunk, frozen, config, vocab)
                                        for chunk in chunks])
            ref = model.encode_batch(group, frozen, config, vocab)
            assert enc.offsets.tolist() == ref.offsets.tolist()
            for got, want in ((enc.states, ref.states), (enc.pooled, ref.pooled)):
                assert got.shape == want.shape and np.max(np.abs(got.data - want.data)) <= 1e-12
    assert sliced > 0
    with pytest.raises(ContractError):
        model.join_encodings([])


def test_generate_batch_refuses_a_budget_past_max_len_for_every_row(world):
    """At ``max_new`` = ``max_len`` a batch decodes as each of its prompts
    alone does. One token more is refused for the whole batch, even for one
    whose every row stops at <eos> in time: the budget is checked, not the
    rows."""
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    short = replace(config, max_len=max(stream_length(ps) for ps in prompts))
    max_new = short.max_len
    checked = 0
    for p in perturbed_models(world):
        alone = [generate(ps, p, short, vocab, max_new=max_new) for ps in prompts]
        assert model.generate_batch(prompts, p, short, vocab, max_new=max_new) == alone
        stops = [ps for ps, ids in zip(prompts, alone) if vocab.eos_id in ids]
        if stops:
            with pytest.raises(ContractError, match="max_new"):
                model.generate_batch(stops, p, short, vocab, max_new=max_new + 1)
            checked += 1
    assert checked > 0


def test_frozen_inference_builds_no_graph(world, monkeypatch):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "meld-toy"), vocab, registry, config.max_len)
    enc = encode(ps, freeze_params(params), config, vocab)
    assert enc.states.parents == () and enc.pooled.parents == ()

    # every tensor generate's forward passes return, on trainable params
    seen = []

    def recording(fn, *fields):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.extend([getattr(out, f) for f in fields] if fields else [out])
            return out
        return wrapped

    monkeypatch.setattr(model, "encode_batch", recording(model.encode_batch, "states", "pooled"))
    monkeypatch.setattr(model, "decoder_states", recording(model.decoder_states))
    monkeypatch.setattr(model, "token_logits", recording(model.token_logits))
    monkeypatch.setattr(ad, "backward", lambda loss: pytest.fail("generate ran a backward pass"))
    ids = generate(ps, params, config, vocab, max_new=4)
    assert len(seen) == 2 + 2 * len(ids)
    assert all(type(t) is np.ndarray or t.parents == () and not t.requires_grad for t in seen)


# ---------------------------------------------------------------------------
# gradients through the full model


def test_full_model_gradient_matches_fd(world):
    vocab, registry, records, config, params = world
    from conftest import fd_check_param
    ps = build_prompt(pick(records, "absa-toy"), vocab, registry, config.max_len)

    def loss():
        enc = encode(ps, params, config, vocab)
        h = decoder_states([[vocab.bos_id, 15]], enc, params, config)
        return ad.token_loss(h, params["w_text"], params["tok_emb"], [15, vocab.eos_id], 1.0)

    for name in ("enc0_attn_bq", "enc0_ln1_g", "dec0_cross_bv", "type_emb", "mask_vec_acoustic"):
        assert fd_check_param(loss, params, name) < 1e-4, name


def test_dataset_embedding_gradient_isolation(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    enc = encode(ps, params, config, vocab)
    g = ad.backward(sum_of(enc.pooled)).get(params["dataset_emb"])
    assert g is not None
    active = ps.dataset_index
    assert np.any(g[active] != 0.0)
    for row in range(config.num_datasets):
        if row != active:
            assert np.all(g[row] == 0.0)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_and_byte_stability(world, tmp_path):
    vocab, registry, records, config, params = world
    arrays = dict(params_to_arrays(params))
    meta = {"stage": "test", "note": ["alpha", 1]}
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, config, arrays, meta=meta)
    cfg2, arrays2, meta2 = load_checkpoint(p1)
    assert cfg2 == config
    assert meta2["note"] == ["alpha", 1]
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert np.array_equal(arrays[k], arrays2[k])
    save_checkpoint(p2, cfg2, arrays2, meta=meta2)
    assert p1.read_bytes() == p2.read_bytes()

    back = params_from_arrays(config, arrays2)
    for name in params:
        assert np.array_equal(back[name].data, params[name].data)


def test_checkpoint_shape_errors(world, tmp_path):
    vocab, registry, records, config, params = world
    arrays = dict(params_to_arrays(params))
    missing = dict(arrays)
    del missing["param/tok_emb"]
    with pytest.raises(ShapeError):
        params_from_arrays(config, missing)
    wrong = dict(arrays)
    wrong["param/w_text"] = np.zeros((3, 3))
    with pytest.raises(ShapeError):
        params_from_arrays(config, wrong)
    extra = dict(arrays)
    extra["param/phantom"] = np.zeros(2)
    with pytest.raises(ShapeError):
        params_from_arrays(config, extra)

    path = tmp_path / "c.ckpt"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def tiny_checkpoint(world, path):
    vocab, registry, records, config, params = world
    arrays = {"param/w_text": params["w_text"].data[:2, :3], "steps": np.arange(4)}
    save_checkpoint(path, config, arrays, meta={"stage": "test", "note": ["alpha", 1]})
    return path.read_bytes()


def rewritten(blob, edit):
    """The checkpoint bytes ``blob`` with their header replaced by
    ``edit(header)``'s JSON."""
    header_len = int.from_bytes(blob[8:16], "little")
    new = json.dumps(edit(json.loads(blob[16:16 + header_len])), sort_keys=True).encode("utf-8")
    return blob[:8] + len(new).to_bytes(8, "little") + new + blob[16 + header_len:]


def test_corrupt_checkpoint_header_is_config_error(world, toy, tmp_path, capsys):
    blob = tiny_checkpoint(world, tmp_path / "good.ckpt")
    header_len = int.from_bytes(blob[8:16], "little")
    header = blob[16:16 + header_len]

    def patched(at=None, byte=None, old=None, new=None):
        data = bytearray(blob)
        if at is not None:
            data[at] = byte
        else:
            assert old in header and len(old) == len(new)
            data[16:16 + header_len] = header.replace(old, new)
        return bytes(data)

    cases = {
        "undecodable": patched(at=18, byte=0xFF),
        "missing key": patched(at=18, byte=ord("}")),
        "bad json": patched(at=16, byte=ord("[")),
        "bad dtype": patched(old=b'"<f8"', new=b'"<f4"'),
        "zero heads": patched(old=b'"heads": 2', new=b'"heads": 0'),
        "float max_len": patched(old=b'"max_len": 96', new=b'"max_len":1e2'),
        "header past end": blob[:8] + (2 ** 40).to_bytes(8, "little") + blob[16:],
    }
    for data in cases.values():
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def first_array(h, **fields):
        return {**h, "arrays": [{**h["arrays"][0], **fields}, *h["arrays"][1:]]}

    named = {  # each check's own message
        "header is not a JSON object": rewritten(blob, lambda h: [h]),
        "bad shape for array 'param/w_text'":
            rewritten(blob, lambda h: first_array(h, shape=[2, -3])),
        "metadata is not a JSON object": rewritten(blob, lambda h: {**h, "meta": ["stage", "test"]}),
        # the second array takes the first's name: it would silently replace it
        "names array 'param/w_text' twice": rewritten(blob, lambda h: {**h, "arrays": [
            {**a, "name": h["arrays"][0]["name"]} for a in h["arrays"]]}),
    }
    for message, data in named.items():
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)
    # version-1 files predate the payload CRC-32 and version-2 files hold key
    # biases: neither is read, and ``eval`` on one exits 2 with one JSON line
    assert int.from_bytes(blob[4:8], "little") == 3
    for old in (1, 2):
        path.write_bytes(blob[:4] + old.to_bytes(4, "little") + blob[8:])
        with pytest.raises(ConfigError, match=f"unsupported checkpoint version {old}"):
            load_checkpoint(path)
    capsys.readouterr()
    code = main(["eval", "--corpus", str(toy["corpus_path"]), "--registry",
                 str(toy["registry_path"]), "--checkpoint", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ConfigError",
                               "message": f"{path}: unsupported checkpoint version 2"}


def test_checkpoint_manifest_must_tile_the_payload(world, tmp_path, monkeypatch):
    """The manifest is checked against the file's size before any array is
    allocated: its entries must cover the payload exactly, in order, from
    offset 0, and a header length past the end of the file is refused, not
    allocated. An array cut short, by a file cut or one that shrinks while it
    is read, and a payload whose CRC-32 differs, are refused too. Each is a
    ConfigError with its own message."""
    blob = tiny_checkpoint(world, tmp_path / "good.ckpt")  # 48 bytes of w_text, then 32 of steps
    header_len = int.from_bytes(blob[8:16], "little")
    size_past_end = len(blob) - 16 + 1

    def arrays(edit):
        return rewritten(blob, lambda h: {**h, "arrays": edit(h["arrays"])})

    def moved(offset):
        return arrays(lambda a: [a[0], {**a[1], "offset": offset}])

    cases = {
        "header of 1099511627776 bytes runs past the end":
            blob[:8] + (2 ** 40).to_bytes(8, "little") + blob[16:],
        f"header of {size_past_end} bytes runs past the end":
            blob[:8] + size_past_end.to_bytes(8, "little") + blob[16:],
        "array 'steps' starts at payload byte 48, not 0": arrays(lambda a: [a[1], a[0]]),
        "array 'steps' starts at payload byte 40, not 48": moved(40),  # overlaps w_text
        "array 'steps' starts at payload byte 56, not 48": moved(56),  # leaves a gap
        "array 'steps' starts at payload byte 48.0, not 48": moved(48.0),
        "payload holds 32 bytes past its last array": arrays(lambda a: a[:1]),
        "payload holds 8 bytes past its last array": blob + bytes(8),
        "truncated checkpoint payload at array 'steps'": blob[:-8],
        "truncated checkpoint payload at array 'param/w_text'":
            blob[:16 + header_len + 40],
        "payload does not match its CRC-32": blob[:-1] + bytes([blob[-1] ^ 1]),
    }
    path = tmp_path / "bad.ckpt"
    for message, data in cases.items():
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    # a file that loses its last 8 bytes after it was sized
    path.write_bytes(blob[:-8])
    real_fstat = model.os.fstat
    monkeypatch.setattr(model.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(ConfigError, match="file ends inside array 'steps'"):
        load_checkpoint(path)
    monkeypatch.undo()

    with pytest.raises(ConfigError, match="checkpoint not found"):
        load_checkpoint(tmp_path / "missing.ckpt")
    with pytest.raises(ConfigError, match="cannot read checkpoint .*Is a directory"):
        load_checkpoint(tmp_path)


def test_checkpoint_load_holds_one_copy(world, tmp_path):
    """A load reads each array from the file into its own owning,
    C-contiguous, writable buffer, so its traced peak stays within 1.2x the
    file's size on a checkpoint of over 1 MB; reading the whole file and
    copying each array out of it peaks near 2x. A zero-size array, such as
    an empty ``pseudo`` table, round-trips, and the loaded arrays save back
    to the same bytes."""
    import tracemalloc
    vocab, registry, records, config, params = world
    rng = np.random.default_rng(0)
    arrays = {"param/big": rng.normal(size=(256, 512)), "steps": np.arange(1000),
              "pseudo": np.zeros((0, 4), dtype=np.int64), "empty": np.zeros(0)}
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, config, arrays, meta={"stage": "test"})
    size = path.stat().st_size
    assert size > 2 ** 20
    load_checkpoint(path)  # imports and caches warm, untraced
    tracemalloc.start()
    try:
        _, back, meta = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * size, (peak, size)
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        got = back[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape and np.array_equal(got, arr)
        assert got.flags.owndata and got.flags.c_contiguous and got.flags.writeable
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, config, back, meta=meta)
    assert resaved.read_bytes() == path.read_bytes()


def test_checkpoint_byte_mutation_fuzz(world, tmp_path):
    """Every one-byte change to the magic, version, length and header, and
    a sample of payload bytes, either loads or raises a package error; every
    payload change is a ConfigError, caught by the header's CRC-32."""
    blob = tiny_checkpoint(world, tmp_path / "good.ckpt")
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    rng = np.random.default_rng(0)
    positions = list(range(header_end)) + list(rng.integers(header_end, len(blob), size=16))
    path = tmp_path / "mutant.ckpt"
    for at in positions:
        for byte in (0x00, 0xFF, ord("}"), ord("0"), ord('"'), (blob[at] + 1) % 256):
            data = bytearray(blob)
            data[at] = byte
            path.write_bytes(bytes(data))
            if at >= header_end and byte != blob[at]:
                with pytest.raises(ConfigError, match="CRC-32"):
                    load_checkpoint(path)
                continue
            try:
                load_checkpoint(path)
            except SentigenError:
                pass


def test_init_params_follows_param_layout(world):
    vocab, registry, records, config, params = world
    layout = param_layout(config)
    assert [(name, t.shape) for name, t in params.items()] == [(n, s) for n, s, _ in layout]
    assert {init for _, _, init in layout} == {"normal", "xavier", "zeros", "ones"}
    for name, _, init in layout:
        if init in ("zeros", "ones"):
            assert np.all(params[name].data == (init == "ones"))


def test_params_from_arrays_draws_no_fresh_model(world, monkeypatch):
    vocab, registry, records, config, params = world

    def refuse(*args, **kwargs):
        raise AssertionError("params_from_arrays drew random numbers")

    monkeypatch.setattr(model, "init_params", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    back = params_from_arrays(config, params_to_arrays(params))
    assert list(back) == list(params)
    assert all(np.array_equal(back[name].data, params[name].data) for name in params)


def test_init_is_seeded(world):
    vocab, registry, records, config, params = world
    again = init_params(config, np.random.default_rng(42))
    for name in params:
        assert np.array_equal(params[name].data, again[name].data)
    other = init_params(config, np.random.default_rng(43))
    assert any(not np.array_equal(params[n].data, other[n].data) for n in params)
