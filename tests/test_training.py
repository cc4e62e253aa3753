import hashlib
import json

import numpy as np
import pytest

from sentigen import autodiff as ad
from sentigen import training
from sentigen.data import POOL_DATASET_ID, Polarity, Registry, TASK_ORDER, TaskType, to_polarity
from sentigen.errors import ConfigError, NumericError
from sentigen.model import ModelConfig
from sentigen.training import (Adam, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, IndexPool, PolarityPools,
                               TaskPools, TrainConfig, clip_gradients, gold_token_ids,
                               run_finetune, run_pretrain_stage1, run_pretrain_stage2,
                               task_average_sample)

from conftest import small_config


def make_params(*shapes):
    return {f"p{i}": ad.Tensor(np.full(shape, 1.0), requires_grad=True, op="param")
            for i, shape in enumerate(shapes)}


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_cfg(**kw):
    base = dict(learning_rate=1e-3, batch_size=4, dropout_rate=0.0, seed=3, max_steps=2,
                num_speakers=8, validate_every_epochs=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_reference_updates():
    params = make_params((2,))
    p = params["p0"]
    opt = Adam(params, lr=0.1)
    data = p.data.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    rng = np.random.default_rng(0)
    for t in range(1, 4):
        g = rng.normal(size=2)
        p.grad = g.copy()
        opt.step(params)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** t)
        vhat = v / (1 - ADAM_BETA2 ** t)
        data = data - 0.1 * mhat / (np.sqrt(vhat) + ADAM_EPS)
        np.testing.assert_allclose(p.data, data, rtol=0, atol=1e-15)
    assert opt.t == 3


def test_adam_skips_missing_gradients():
    params = make_params((2,), (3,))
    params["p0"].grad = np.ones(2)
    params["p1"].grad = None
    before = params["p1"].data.copy()
    Adam(params, lr=0.5).step(params)
    np.testing.assert_array_equal(params["p1"].data, before)
    assert not np.array_equal(params["p0"].data, np.full(2, 1.0))


def test_clip_gradients_global_norm():
    params = make_params((1,), (1,))
    params["p0"].grad = np.array([3.0])
    params["p1"].grad = np.array([4.0])
    norm = clip_gradients(params, 1.0)
    assert abs(norm - 5.0) < 1e-12
    np.testing.assert_allclose(params["p0"].grad, [0.6])
    np.testing.assert_allclose(params["p1"].grad, [0.8])
    # under the ceiling: untouched
    params["p0"].grad = np.array([0.3])
    params["p1"].grad = np.array([0.4])
    clip_gradients(params, 1.0)
    np.testing.assert_allclose(params["p0"].grad, [0.3])


# ---------------------------------------------------------------------------
# index pools


def test_index_pool_draws_without_replacement_per_pass():
    rng = np.random.default_rng(5)
    pool = IndexPool([3, 1, 4, 1 + 8, 5], rng)
    first = pool.draw(5, rng)
    assert sorted(first) == [1, 3, 4, 5, 9]
    both = pool.draw(10, rng)
    assert sorted(both[:5] + both[5:]) == sorted([1, 3, 4, 5, 9] * 2)


def test_index_pool_state_roundtrip():
    rng_a = np.random.default_rng(7)
    a = IndexPool(range(6), rng_a)
    a.draw(4, rng_a)
    state = a.state()
    rng_b = np.random.default_rng(7)
    b = IndexPool(range(6), rng_b)
    b.draw(4, rng_b)
    b.load_state(json.loads(json.dumps(state)))
    assert a.draw(5, rng_a) == b.draw(5, rng_b)


def test_index_pool_rejects_empty():
    with pytest.raises(ConfigError):
        IndexPool([], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# task-average sampling


def test_task_average_exact_quarters(toy):
    rng = np.random.default_rng(1)
    pools = TaskPools(toy["records"], rng)
    task_of = {i: r.task_type for i, r in enumerate(toy["records"])}
    for _ in range(20):
        batch = task_average_sample(pools, 64, rng)
        assert len(batch) == 64
        counts = {t: 0 for t in TASK_ORDER}
        for task, idx in batch:
            assert task_of[idx] is task
            counts[task] += 1
        assert all(c == 16 for c in counts.values())


def test_task_average_remainder_rotates(toy):
    rng = np.random.default_rng(2)
    pools = TaskPools(toy["records"], rng)
    cumulative = {t: 0 for t in TASK_ORDER}
    for _ in range(100):
        counts = {t: 0 for t in TASK_ORDER}
        for task, _ in task_average_sample(pools, 6, rng):
            counts[task] += 1
            cumulative[task] += 1
        assert max(counts.values()) - min(counts.values()) <= 1
    assert max(cumulative.values()) - min(cumulative.values()) <= 1


def test_task_pools_require_every_task(toy):
    no_erc = [r for r in toy["records"] if r.task_type is not TaskType.ERC]
    with pytest.raises(ConfigError, match="erc"):
        TaskPools(no_erc, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# polarity pair pools


def test_polarity_pairs_share_their_polarity(toy):
    records = toy["records"]
    rng = np.random.default_rng(4)
    pools = PolarityPools(records, rng)
    seen = set()
    for pol, i, j in pools.draw_pairs(12, rng):
        seen.add(pol)
        assert to_polarity(records[i].label, records[i].dataset_id) is pol
        assert to_polarity(records[j].label, records[j].dataset_id) is pol
    assert seen == set(pools.order)  # rotation reaches every pool


def test_polarity_pools_drop_small_groups(toy):
    records = [r for r in toy["records"]
               if to_polarity(r.label, r.dataset_id) is not Polarity.NEUTRAL]
    neutral_one = next(r for r in toy["records"]
                       if to_polarity(r.label, r.dataset_id) is Polarity.NEUTRAL)
    pools = PolarityPools(records + [neutral_one], np.random.default_rng(0))
    assert Polarity.NEUTRAL not in pools.order
    # membership: each kept record sits in the pool of its own polarity, once
    members = [int(i) for pol in pools.order for i in pools.pools[pol].indices]
    assert sorted(members) == list(range(len(records)))
    for pol in pools.order:
        for i in pools.pools[pol].indices:
            assert to_polarity(records[i].label, records[i].dataset_id) is pol


def test_polarity_pools_need_one_pair(toy):
    one = [toy["records"][0]]
    with pytest.raises(ConfigError):
        PolarityPools(one, np.random.default_rng(0))


def test_polarity_pools_state_roundtrip(toy):
    records = toy["records"]
    rng_a = np.random.default_rng(9)
    a = PolarityPools(records, rng_a)
    a.draw_pairs(5, rng_a)
    rng_b = np.random.default_rng(9)
    b = PolarityPools(records, rng_b)
    b.draw_pairs(5, rng_b)
    b.load_state(json.loads(json.dumps(a.state())))
    assert a.draw_pairs(7, rng_a) == b.draw_pairs(7, rng_b)


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(mask_prob=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(loss_weights=(1.0, 1.0)).validate()
    with pytest.raises(ConfigError):
        TrainConfig(centroid_refresh_every=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(checkpoint_every=-1).validate()
    TrainConfig(checkpoint_every=0).validate()  # 0, like None, disables periodic saves
    with pytest.raises(ConfigError):
        TrainConfig.from_json({"learnig_rate": 1e-4})
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(max_new_tokens=0).validate()
    with pytest.raises(ConfigError, match="num_speakers"):
        TrainConfig(num_speakers=-1).validate()
    TrainConfig(num_speakers=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(loss_weights=(1.0, 1.0, 1.0, "x")).validate()
    cfg = TrainConfig.from_json({"loss_weights": [1, 2, 3, 4], "max_steps": 7})
    assert cfg.loss_weights == (1, 2, 3, 4) and cfg.max_steps == 7
    for bad in ({"batch_size": "8"}, {"batch_size": True}, {"learning_rate": "x"},
                {"loss_weights": 5}, {"max_steps": 2.5}, {"modal_mask_augment": 1}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig.from_json(bad)
    assert TrainConfig.from_json({"learning_rate": 1, "max_steps": None}).learning_rate == 1


def test_run_rejects_dimension_mismatch(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    bad = ModelConfig(**{**config.__dict__, "acoustic_dim": 5})
    with pytest.raises(ConfigError, match="acoustic_dim"):
        run_finetune(toy["records"], toy["registry"], bad, train_cfg(), tmp_path / "r")


def test_stage1_requires_pool_dataset(toy, tmp_path):
    registry = toy["registry"]
    stripped = Registry([registry.spec(d) for d in registry.dataset_ids
                         if d != POOL_DATASET_ID])
    config = small_config(toy["vocab"], stripped)
    with pytest.raises(ConfigError, match=POOL_DATASET_ID):
        run_pretrain_stage1(toy["records"], stripped, config, train_cfg(), tmp_path / "s1")


# ---------------------------------------------------------------------------
# runs


def test_finetune_logs_and_checkpoints(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    out = tmp_path / "ft"
    path = run_finetune(toy["records"], toy["registry"], config,
                        train_cfg(max_steps=6, validate_every_epochs=1, max_new_tokens=3),
                        out)
    assert path.exists()
    lines = [json.loads(l) for l in open(out / "metrics.jsonl")]
    assert [l["step"] for l in lines] == [1, 2, 3, 4, 5, 6]
    assert list(lines[0]) == ["step", "stage", "mcm", "spp", "ccl", "cep", "total", "lr"]
    assert lines[0]["stage"] == "finetune"
    assert all(l["total"] > 0 and l["mcm"] == 0.0 for l in lines)
    vals = [json.loads(l) for l in open(out / "val_metrics.jsonl")]
    assert vals and set(vals[0]) == {"step", "epoch", "datasets"}
    assert set(vals[0]["datasets"]) == set(toy["registry"].dataset_ids)


def test_stage1_step_and_resume_bit_exact(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    cfg_full = train_cfg(max_steps=4, dropout_rate=0.1)
    full = run_pretrain_stage1(toy["records"], toy["registry"], config, cfg_full,
                               tmp_path / "full")
    lines = [json.loads(l) for l in open(tmp_path / "full" / "metrics.jsonl")]
    assert all(l["mcm"] > 0 and l["spp"] > 0 for l in lines)
    assert all(abs(l["total"] - (l["mcm"] + l["spp"] + l["ccl"])) < 1e-9 for l in lines)

    half = run_pretrain_stage1(toy["records"], toy["registry"], config,
                               train_cfg(max_steps=2, dropout_rate=0.1), tmp_path / "half")
    resumed = run_pretrain_stage1(toy["records"], toy["registry"], config, cfg_full,
                                  tmp_path / "resumed", resume_from=half)
    assert sha(full) == sha(resumed)


def test_stage2_resume_bit_exact(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    cfg_full = train_cfg(max_steps=4, dropout_rate=0.1)
    full = run_pretrain_stage2(toy["records"], toy["registry"], config, cfg_full,
                               tmp_path / "full")
    lines = [json.loads(l) for l in open(tmp_path / "full" / "metrics.jsonl")]
    assert all(l["mcm"] > 0 and l["cep"] > 0 and l["spp"] == 0.0 for l in lines)

    half = run_pretrain_stage2(toy["records"], toy["registry"], config,
                               train_cfg(max_steps=2, dropout_rate=0.1), tmp_path / "half")
    resumed = run_pretrain_stage2(toy["records"], toy["registry"], config, cfg_full,
                                  tmp_path / "resumed", resume_from=half)
    assert sha(full) == sha(resumed)


def test_finetune_resume_bit_exact_and_deterministic(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    cfg_full = train_cfg(max_steps=4, dropout_rate=0.1)
    a = run_finetune(toy["records"], toy["registry"], config, cfg_full, tmp_path / "a")
    b = run_finetune(toy["records"], toy["registry"], config, cfg_full, tmp_path / "b")
    assert sha(a) == sha(b)
    assert (open(tmp_path / "a" / "metrics.jsonl").read()
            == open(tmp_path / "b" / "metrics.jsonl").read())

    half = run_finetune(toy["records"], toy["registry"], config,
                        train_cfg(max_steps=2, dropout_rate=0.1), tmp_path / "half")
    resumed = run_finetune(toy["records"], toy["registry"], config, cfg_full,
                           tmp_path / "resumed", resume_from=half)
    assert sha(a) == sha(resumed)


RUNS = {"pretrain1": (run_pretrain_stage1, "stage1_loss"),
        "pretrain2": (run_pretrain_stage2, "stage2_loss"),
        "finetune": (run_finetune, "generation_loss")}


@pytest.mark.parametrize("stage", sorted(RUNS))
def test_interrupted_run_resumes_to_identical_logs(toy, tmp_path, monkeypatch, stage):
    """Fault injection: a run that dies at step 5 and resumes from its step-2
    checkpoint in the same directory leaves the same logs and final
    checkpoint bytes as a run that was never interrupted."""
    run, loss_name = RUNS[stage]
    config = small_config(toy["vocab"], toy["registry"])
    # 24 records in batches of 8: validation after steps 3 and 6
    cfg = train_cfg(max_steps=6, batch_size=8, checkpoint_every=2, dropout_rate=0.1,
                    validate_every_epochs=1, max_new_tokens=2)
    full = run(toy["records"], toy["registry"], config, cfg, tmp_path / "full")

    real_loss = getattr(training, loss_name)
    calls = []

    def failing_loss(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("injected fault")
        return real_loss(*args, **kwargs)

    out = tmp_path / "cut"
    monkeypatch.setattr(training, loss_name, failing_loss)
    with pytest.raises(RuntimeError, match="injected fault"):
        run(toy["records"], toy["registry"], config, cfg, out)
    monkeypatch.setattr(training, loss_name, real_loss)
    cut_log = (out / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(l)["step"] for l in cut_log] == [1, 2, 3, 4]

    resumed = run(toy["records"], toy["registry"], config, cfg, out,
                  resume_from=out / "checkpoint_step2.ckpt")
    assert resumed.read_bytes() == full.read_bytes()
    logs = ["metrics.jsonl"] + (["val_metrics.jsonl"] if stage == "finetune" else [])
    for name in logs:
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


@pytest.mark.parametrize("stage,passes", [("pretrain1", 2), ("pretrain2", 1), ("finetune", 1)])
def test_encoder_passes_per_step(toy, tmp_path, monkeypatch, stage, passes):
    """Stage one encodes each batch twice (corrupted, clean); stage two's
    losses share one corrupted pass and fine-tuning makes one clean pass."""
    from sentigen import objectives
    real, calls = objectives.encode_batch, []

    def counting(prompts, *args, **kwargs):
        calls.append(len(prompts))
        return real(prompts, *args, **kwargs)

    monkeypatch.setattr(objectives, "encode_batch", counting)
    config = small_config(toy["vocab"], toy["registry"])
    RUNS[stage][0](toy["records"], toy["registry"], config, train_cfg(max_steps=3), tmp_path)
    assert calls == [4] * (3 * passes)


def test_resume_rejects_wrong_stage(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "ft")
    with pytest.raises(ConfigError, match="finetune"):
        run_pretrain_stage2(toy["records"], toy["registry"], config, train_cfg(),
                            tmp_path / "s2", resume_from=ck)


def test_init_checkpoint_carries_weights_not_step(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_pretrain_stage1(toy["records"], toy["registry"], config, train_cfg(max_steps=2),
                             tmp_path / "s1")
    out = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=2),
                       tmp_path / "ft", init_checkpoint=ck)
    lines = [json.loads(l) for l in open(tmp_path / "ft" / "metrics.jsonl")]
    assert [l["step"] for l in lines] == [1, 2]
    assert out.exists()


@pytest.mark.parametrize("runner", [run_pretrain_stage2, run_finetune])
def test_init_checkpoint_brings_its_own_model(toy, tmp_path, runner):
    """A run started from a checkpoint takes its model config from the
    checkpoint: a default ModelConfig passed alongside (acoustic_dim 64, not
    the registry's 8) is ignored, not checked against the registry."""
    from sentigen.model import load_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_pretrain_stage1(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                             tmp_path / "s1")
    out = runner(toy["records"], toy["registry"], ModelConfig(), train_cfg(max_steps=2),
                 tmp_path / "next", init_checkpoint=ck)
    got, _, _ = load_checkpoint(out)
    assert (got.model_dim, got.acoustic_dim, got.visual_dim) == (16, 8, 4)


def test_load_model_checks_registry_feature_widths(toy, tmp_path):
    from dataclasses import replace
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "ft")
    registry = toy["registry"]
    specs = [registry.spec(d) for d in registry.dataset_ids]
    wider = Registry([replace(s, acoustic_dim=5) if s.acoustic_dim else s for s in specs])
    with pytest.raises(ConfigError, match="acoustic_dim"):
        training.load_model(ck, wider)
    training.load_model(ck, registry)


def test_non_finite_state_raises(toy, tmp_path):
    from sentigen.model import load_checkpoint, save_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    arrays["param/w_text"][0, 0] = np.nan
    poisoned = tmp_path / "poisoned.ckpt"
    save_checkpoint(poisoned, ck_config, arrays, meta=meta)
    with pytest.raises(NumericError):
        run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=2),
                     tmp_path / "blowup", init_checkpoint=poisoned)


BAD_META = {"vocab": [None, "abc", [1, 2], ["<pad>"]], "vocab_datasets": [None, "5"],
            "vocab_speakers": [True], "step": [None, 2.0], "adam_t": ["1"],
            "rng": [None, {"data": 3}]}


@pytest.mark.parametrize("field", sorted(BAD_META))
def test_bad_checkpoint_meta_is_config_error(toy, tmp_path, field):
    """Every checkpoint field the loader or a resume reads is checked, so a
    missing or mistyped one is a ConfigError, never a raw KeyError."""
    from sentigen.model import load_checkpoint, save_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    bad = tmp_path / "bad.ckpt"
    # a fresh run started from a checkpoint reads only the vocabulary fields
    uses = ["resume_from"] + (["init_checkpoint"] if field.startswith("vocab") else [])
    missing = {k: v for k, v in meta.items() if k != field}
    for broken in [missing] + [{**meta, field: v} for v in BAD_META[field]]:
        save_checkpoint(bad, ck_config, arrays, meta=broken)
        for use in uses:
            with pytest.raises(ConfigError, match=field):
                run_finetune(toy["records"], toy["registry"], config, train_cfg(),
                             tmp_path / use, **{use: bad})


BAD_RESUME_STATE = {
    "pools=None": ("pools", lambda v: None),
    "pools={}": ("pools", lambda v: {}),
    "pools=5": ("pools", lambda v: 5),
    "pools-no-task-pools": ("pools", lambda v: {"rotation": 0, "pools": {}}),
    "pools-short-perm": ("pools", lambda v: {**v, "pools": {
        k: {**p, "perm": p["perm"][:-1]} for k, p in v["pools"].items()}}),
    "pools-cursor-past-end": ("pools", lambda v: {**v, "pools": {
        k: {**p, "cursor": 10 ** 6} for k, p in v["pools"].items()}}),
    "pseudo=5": ("pseudo", lambda v: 5),
    "pseudo=[1]": ("pseudo", lambda v: [1]),
    "pseudo-unknown-task": ("pseudo", lambda v: [{"no-such-task": "x"}]),
    "centroids=[1]": ("centroids", lambda v: [1]),
    "centroids-unknown-task": ("centroids", lambda v: {"no-such-task": {}}),
    "centroids-not-vectors": ("centroids", lambda v: {"sentiment": 3}),
}


@pytest.mark.parametrize("case", sorted(BAD_RESUME_STATE))
def test_bad_resume_state_is_config_error(toy, tmp_path, case):
    """The sampling state, pseudo labels and centroids a resume restores are
    checked too: a malformed one is a ConfigError naming the field."""
    from sentigen.model import load_checkpoint, save_checkpoint
    field, corrupt = BAD_RESUME_STATE[case]
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ck_config, arrays, meta={**meta, field: corrupt(meta[field])})
    with pytest.raises(ConfigError, match=field):
        run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=2),
                     tmp_path / "resume", resume_from=bad)


BAD_STAGE2_STATE = {
    "pseudo=[]": ("pseudo", lambda v: []),
    "pseudo-short": ("pseudo", lambda v: v[:-1]),
    "pseudo=None": ("pseudo", lambda v: None),
    "centroids=None": ("centroids", lambda v: None),
}


@pytest.mark.parametrize("case", sorted(BAD_STAGE2_STATE))
def test_bad_stage2_resume_state_is_config_error(toy, tmp_path, case):
    """Stage two reads the pseudo labels per record: a list that parses but
    does not cover the corpus, or pseudo labels without centroids (or the
    reverse), is a ConfigError on resume, not a failure mid-step."""
    from sentigen.model import load_checkpoint, save_checkpoint
    field, corrupt = BAD_STAGE2_STATE[case]
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_pretrain_stage2(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                             tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    assert meta["pseudo"] is not None and meta["centroids"] is not None
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ck_config, arrays, meta={**meta, field: corrupt(meta[field])})
    with pytest.raises(ConfigError, match=field):
        run_pretrain_stage2(toy["records"], toy["registry"], config,
                            train_cfg(max_steps=3, centroid_refresh_every=100),
                            tmp_path / "resume", resume_from=bad)


def test_checkpoint_write_is_atomic(toy, tmp_path, monkeypatch):
    """A write that fails partway through the payload leaves the previous
    checkpoint's bytes in place and no temporary file behind."""
    import sentigen.model as model
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "run")
    before = ck.read_bytes()
    names = sorted(p.name for p in ck.parent.iterdir())
    ck_config, arrays, meta = model.load_checkpoint(ck)
    arrays["param/w_text"] = arrays["param/w_text"] + 1.0

    class Torn:
        """A file whose writes fail once 1,000 bytes have gone out."""

        def __init__(self, fh):
            self.fh, self.written = fh, 0

        def write(self, blob):
            if self.written + len(blob) > 1000:
                raise OSError("disk full")
            self.written += len(blob)
            return self.fh.write(blob)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    real_open = open
    monkeypatch.setattr(model, "open", lambda *a, **k: Torn(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        model.save_checkpoint(ck, ck_config, arrays, meta=meta)
    monkeypatch.undo()
    assert ck.read_bytes() == before
    assert sorted(p.name for p in ck.parent.iterdir()) == names
    model.save_checkpoint(ck, ck_config, arrays, meta=meta)
    assert ck.read_bytes() != before
    assert np.array_equal(model.load_checkpoint(ck)[1]["param/w_text"], arrays["param/w_text"])


def test_gold_token_ids_render_labels(toy):
    record = next(r for r in toy["records"] if r.dataset_id == "mosi-toy")
    ids = gold_token_ids(record, toy["registry"], toy["vocab"])
    assert ids, "scalar labels must tokenize"
    from sentigen.prompt import detokenize
    assert detokenize(ids, toy["vocab"]).replace(" ", "") == f"{float(record.label):.1f}"
