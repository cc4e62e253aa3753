from dataclasses import replace

import numpy as np
import pytest

import sentigen.autodiff as ad
import sentigen.model as model
from sentigen.errors import ConfigError, ContractError, SentigenError, ShapeError
from sentigen.model import (DecoderCache, ModelConfig, decoder_states, encode, freeze_params,
                            generate, init_params, load_checkpoint, param_layout,
                            params_from_arrays, params_to_arrays, save_checkpoint, token_logits)
from sentigen.prompt import build_prompt, flatten_prompt

from conftest import small_config


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
    total = ps.token_length + ps.frame_count
    assert enc.states.data.shape == (total, config.model_dim)
    assert enc.pooled.data.shape == (config.model_dim,)
    assert enc.token_length == ps.token_length
    assert enc.keep.all()  # no pads in a freshly built prompt


def test_pad_positions_are_inert(world):
    vocab, registry, records, config, params = world
    r = pick(records, "absa-toy")
    ps = build_prompt(r, vocab, registry, config.max_len)
    enc = encode(ps, params, config, vocab)

    # pads appended at the end and spliced into the middle of the query
    pad = vocab.pad_id
    tail = replace(ps, x_tokens=ps.x_tokens + (pad, pad))
    mid = replace(ps, x_tokens=ps.x_tokens[:2] + (pad,) + ps.x_tokens[2:] + (pad,))
    for padded in (tail, mid):
        out = encode(padded, params, config, vocab)
        assert np.array_equal(out.pooled.data, enc.pooled.data)
        keep_rows = out.states.data[out.keep]
        assert np.array_equal(keep_rows, enc.states.data)


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

    from sentigen.masking import MaskPlan
    bad = MaskPlan(masked_token_positions=(ps.token_length + 5,),
                   masked_modal_frames={})
    with pytest.raises(IndexError):
        encode(ps, params, config, vocab, mask_plan=bad)


def test_mask_plan_substitutes_learned_vectors(world):
    vocab, registry, records, config, params = world
    from sentigen.masking import MaskPlan
    r = pick(records, "meld-toy")
    ps = build_prompt(r, vocab, registry, config.max_len)
    plan = MaskPlan(masked_token_positions=(ps.token_length - 1,),
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
    ids_a = [vocab.bos_id, 20, 21, 22]
    ids_b = [vocab.bos_id, 20, 30, 31]  # diverges from position 2 on
    ha = decoder_states(ids_a, enc, params, config).data
    hb = decoder_states(ids_b, enc, params, config).data
    assert np.array_equal(ha[:2], hb[:2])
    assert not np.array_equal(ha[2:], hb[2:])
    with pytest.raises(ContractError):
        decoder_states([], enc, params, config)


def test_logits_projection_is_tied(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    enc = encode(ps, params, config, vocab)
    h = decoder_states([vocab.bos_id], enc, params, config)
    logits = token_logits(h, params).data
    manual = h.data @ params["w_text"].data.T @ params["tok_emb"].data.T
    assert logits.shape == (1, config.vocab_size)
    assert np.allclose(logits, manual, atol=1e-12)


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
    ids = [vocab.bos_id, 20, 21, 5, 22, 30, 31]
    for dataset in ("sst-toy", "meld-toy", "mosi-toy"):
        ps = build_prompt(pick(records, dataset), vocab, registry, config.max_len)
        enc = encode(ps, frozen, config, vocab)
        full = decoder_states(ids, enc, params, config).data
        for chunks in ([1] * len(ids), [2, 1, 3, 1]):
            cache = DecoderCache()
            fed = 0
            for n in chunks:
                rows = decoder_states(ids[fed:fed + n], enc, frozen, config, cache=cache).data
                assert np.max(np.abs(rows - full[fed:fed + n])) <= 1e-12
                fed += n
            assert cache.length == len(ids)


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
            h = decoder_states([vocab.bos_id] + ids[:-1], enc, p, config)
            assert list(np.argmax(token_logits(h, p).data, axis=1)) == ids
            assert vocab.eos_id not in ids[:-1]
            assert len(ids) == max_new or ids[-1] == vocab.eos_id
            early += len(ids) < max_new
    assert early > 0


def test_generate_overflow_is_contract_error(world):
    vocab, registry, records, config, params = world
    for p in perturbed_models(world):
        ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
        short = replace(config, max_len=ps.token_length + ps.frame_count)
        ids = generate(ps, p, config, vocab, max_new=short.max_len + 1)
        if vocab.eos_id in ids[:short.max_len]:
            assert generate(ps, p, short, vocab, max_new=short.max_len + 1) == ids
        else:
            with pytest.raises(ContractError):
                generate(ps, p, short, vocab, max_new=short.max_len + 1)


def stream_length(ps):
    return ps.token_length + ps.frame_count


def test_encode_batch_matches_per_prompt(world):
    """Every sample of a padded batch gets the states, pooled vector and
    keep mask that ``encode`` gives it alone; pads sit at each sample's end."""
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    lengths = [stream_length(ps) for ps in prompts]
    assert len(set(lengths)) > 1
    batch = model.encode_batch(prompts, params, config, vocab)
    width = max(lengths)
    assert batch.states.shape == (len(prompts) * width, config.model_dim)
    assert batch.pooled.shape == (len(prompts), config.model_dim)
    assert batch.token_length == [ps.token_length for ps in prompts]
    for i, ps in enumerate(prompts):
        one = encode(ps, params, config, vocab)
        rows = batch.states.data[i * width:i * width + lengths[i]]
        assert np.max(np.abs(rows - one.states.data)) <= 1e-12
        assert np.max(np.abs(batch.pooled.data[i] - one.pooled.data)) <= 1e-12
        assert np.array_equal(batch.keep[i, :lengths[i]], one.keep)
        assert not batch.keep[i, lengths[i]:].any()
    chunked = model.pooled_vectors(prompts, params, config, vocab)
    assert np.max(np.abs(chunked - batch.pooled.data)) <= 1e-12
    assert model.pooled_vectors([], params, config, vocab).shape == (0, config.model_dim)
    with pytest.raises(ContractError):
        model.encode_batch([], params, config, vocab)
    with pytest.raises(ShapeError):
        decoder_states([[vocab.bos_id]] * 2, batch, params, config)


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


def test_generate_batch_overflow_only_running_rows_raise(world):
    """A batch whose every row stops at <eos> within ``max_len`` decodes
    fine even when ``max_new`` is larger; one row still running at the
    overflow raises, whatever the others did."""
    vocab, registry, records, config, params = world
    prompts = [build_prompt(r, vocab, registry, config.max_len) for r in records]
    short = replace(config, max_len=max(stream_length(ps) for ps in prompts))
    max_new = short.max_len + 1
    checked = 0
    for p in perturbed_models(world):
        alone = [generate(ps, p, config, vocab, max_new=max_new) for ps in prompts]
        stops = [ps for ps, ids in zip(prompts, alone) if vocab.eos_id in ids[:short.max_len]]
        runs = [ps for ps, ids in zip(prompts, alone) if vocab.eos_id not in ids]
        if len(stops) < 2 or not runs:
            continue
        expected = [ids for ids in alone if vocab.eos_id in ids[:short.max_len]]
        assert model.generate_batch(stops, p, short, vocab, max_new=max_new) == expected
        with pytest.raises(ContractError):
            model.generate_batch(stops[:1] + runs[:1], p, short, vocab, max_new=max_new)
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
    ad.zero_grads(params.values())
    ids = generate(ps, params, config, vocab, max_new=4)
    assert len(seen) == 2 + 2 * len(ids)
    assert all(t.parents == () and not t.requires_grad for t in seen)
    assert all(t.grad is None for t in params.values())


# ---------------------------------------------------------------------------
# gradients through the full model


def test_full_model_gradient_matches_fd(world):
    vocab, registry, records, config, params = world
    from conftest import fd_check_param
    ps = build_prompt(pick(records, "absa-toy"), vocab, registry, config.max_len)

    def loss():
        enc = encode(ps, params, config, vocab)
        h = decoder_states([vocab.bos_id, 15], enc, params, config)
        return ad.softmax_cross_entropy(token_logits(h, params), [15, vocab.eos_id])

    for name in ("enc0_attn_bq", "enc0_ln1_g", "dec0_cross_bv", "type_emb", "mask_vec_acoustic"):
        assert fd_check_param(loss, params, name) < 1e-4, name


def test_dataset_embedding_gradient_isolation(world):
    vocab, registry, records, config, params = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, config.max_len)
    ad.zero_grads(params.values())
    enc = encode(ps, params, config, vocab)
    ad.backward(ad.sum_all(enc.pooled))
    g = params["dataset_emb"].grad
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


def test_corrupt_checkpoint_header_is_config_error(world, tmp_path):
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
    # version-1 files predate the payload CRC-32 and are not read
    assert int.from_bytes(blob[4:8], "little") == 2
    path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    with pytest.raises(ConfigError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


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
