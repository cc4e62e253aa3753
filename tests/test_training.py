import builtins
import errno
import hashlib
import json
import os
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sentigen import autodiff as ad
from sentigen import objectives, training
from sentigen.data import POOL_DATASET_ID, Polarity, Registry, TASK_ORDER, TaskType, to_polarity
from sentigen.errors import ConfigError, ContractError, NumericError, VocabularyError
from sentigen.model import ModelConfig
from sentigen.prompt import answer_set_tokens, build_prompt, combine_queries
from sentigen.training import (Adam, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, IndexPool, TrainConfig,
                               clip_gradients, gold_token_ids, polarity_pools, run_finetune,
                               run_pretrain_stage1, run_pretrain_stage2, task_average_sample,
                               task_pools)

from conftest import TornWrite, matmul, small_config, sum_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import graph_bytes  # noqa: E402


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


def gathered(**grads):
    """``grads`` ({name: array}) gathered into ``Gradients`` by an Adam over
    parameters of their shapes, in keyword order."""
    params = {name: ad.Tensor(np.zeros(np.shape(g)), requires_grad=True, op="param")
              for name, g in grads.items()}
    return Adam(params, lr=1.0).gather(params, {params[name]: np.asarray(g, dtype=np.float64)
                                                for name, g in grads.items()})


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
        opt.step(opt.gather(params, {p: g.copy()}))
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** t)
        vhat = v / (1 - ADAM_BETA2 ** t)
        data = data - 0.1 * mhat / (np.sqrt(vhat) + ADAM_EPS)
        np.testing.assert_allclose(p.data, data, rtol=0, atol=1e-15)
    assert opt.t == 3


def test_two_adam_steps_equal_literal_values():
    """Two steps from ones at lr 0.1, against values worked apart from the
    code, at 40 digits, with the paper's beta1 0.9, beta2 0.999 and eps 1e-8
    (Kingma & Ba 2015): bias correction cancels beta2 in the first step, so
    only the second sees it, and the first sees eps at 2e-8 of its size.
    The reference above shares the module's constants, so it cannot."""
    params = make_params((2,))
    opt = Adam(params, lr=0.1)
    for g, want in (([0.5, -2.0], [0.900000002, 1.0999999995]),
                    ([-1.0, 0.25], [0.9366103542405656, 1.1572534566710448])):
        opt.step(opt.gather(params, {params["p0"]: np.array(g)}))
        np.testing.assert_allclose(params["p0"].data, want, rtol=0, atol=1e-15)


def test_adam_skips_missing_gradients():
    params = make_params((2,), (3,))
    before = params["p1"].data.copy()
    opt = Adam(params, lr=0.5)
    opt.step(opt.gather(params, {params["p0"]: np.ones(2)}))
    np.testing.assert_array_equal(params["p1"].data, before)
    assert not np.array_equal(params["p0"].data, np.full(2, 1.0))
    assert not opt.m[2:].any() and not opt.v[2:].any()


def test_clip_gradients_global_norm():
    grads = gathered(p0=[3.0], p1=[4.0])
    norm = clip_gradients(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    np.testing.assert_allclose(grads.views["p0"], [0.6])
    np.testing.assert_allclose(grads.views["p1"], [0.8])
    # under the ceiling: untouched
    grads = gathered(p0=[0.3], p1=[0.4])
    clip_gradients(grads, 1.0)
    np.testing.assert_allclose(grads.views["p0"], [0.3])
    # a matrix and a zero vector: sqrt(9 * 4)
    norm = clip_gradients(gathered(p=np.full((3, 3), 2.0), q=np.zeros(2)), 0.0)
    assert norm == pytest.approx(6.0, abs=1e-12)


def test_clip_gradients_clips_a_norm_between_one_and_two_ceilings():
    """A global norm of 1.5 against a ceiling of 1 is scaled down to it: the
    test above clips a norm of 5 and leaves 0.5, neither between one and
    two times the ceiling."""
    grads = gathered(p0=[0.9], p1=[1.2])
    assert clip_gradients(grads, 1.0) == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(grads.views["p0"], [0.6], rtol=1e-12)
    np.testing.assert_allclose(grads.views["p1"], [0.8], rtol=1e-12)


def test_clip_gradients_writes_into_no_array():
    """Two names may share one array, as ``add``'s rule hands both parents
    one: gathering copies it once per name, clipping scales each copy once,
    and the shared array ``backward`` returned stays as it was."""
    shared = np.array([3.0, 4.0])
    params = make_params((2,), (2,))
    grads = Adam(params, lr=1.0).gather(params, {params["p0"]: shared, params["p1"]: shared})
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(np.sqrt(50.0), abs=1e-12)
    for name in params:
        np.testing.assert_array_equal(grads.views[name], shared * (1.0 / np.sqrt(50.0)))
    np.testing.assert_array_equal(shared, [3.0, 4.0])


def per_array_clip_and_step(params, moments, grads, t, lr, max_norm):
    """The per-array ``clip_gradients`` and ``Adam.step`` that the arena
    replaced, kept as the oracle: ``params`` and ``moments`` ({name: (m,
    v)}) are separate arrays updated in place, ``grads`` ({name: array}) is
    clipped by rebinding scaled copies. Returns the norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and max_norm < norm < np.inf:
        factor = max_norm / norm
        grads = {name: g * factor for name, g in grads.items()}
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        p, (m, v) = params[name], moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return norm


def test_flat_update_matches_the_per_array_update_bit_for_bit():
    """Four clipped steps on a layout of 26,545 elements, over one update
    block: a 20,000-element run crosses a block edge, ``skip`` gets no
    gradient between two that do, and ``c`` and ``d`` share one array as
    ``add``'s rule hands them. The arena's parameters, moments and norms
    equal the per-array oracle's bit for bit, and ``skip`` keeps its value
    and zero moments."""
    shapes = {"a": (200, 100), "skip": (64,), "b": (64, 100), "c": (17,), "d": (17,),
              "tail": (47,)}
    assert 200 * 100 > training._UPDATE_BLOCK
    rng = np.random.default_rng(11)
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params = {name: ad.Tensor(a.copy(), requires_grad=True, op="param") for name, a in init.items()}
    opt = Adam(params, lr=3e-3)
    oracle = {name: a.copy() for name, a in init.items()}
    moments = {name: (np.zeros(shape), np.zeros(shape)) for name, shape in shapes.items()}
    for t in range(1, 5):
        grads = {name: rng.normal(size=shapes[name]) for name in ("a", "b", "c", "tail")}
        grads["d"] = grads["c"]
        want = per_array_clip_and_step(oracle, moments, dict(grads), t, 3e-3, 0.5)
        flat = opt.gather(params, {params[name]: g for name, g in grads.items()})
        assert flat.runs == [[0, 20000], [20064, 26545]]
        norm = clip_gradients(flat, 0.5)
        assert norm == want > 0.5
        opt.step(flat)
        for name in shapes:
            assert params[name].data.tobytes() == oracle[name].tobytes(), name
        state = opt.state_arrays()
        for name, (m, v) in moments.items():
            assert state[f"adam_m/{name}"].tobytes() == m.tobytes(), name
            assert state[f"adam_v/{name}"].tobytes() == v.tobytes(), name
    np.testing.assert_array_equal(params["skip"].data, init["skip"])
    assert not state["adam_m/skip"].any() and not state["adam_v/skip"].any()
    assert all(np.shares_memory(p.data, opt.flat) for p in params.values())


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


def test_index_pool_draws_across_passes_as_before():
    """Stage two's and fine-tuning's draws span passes: a fixed-seed
    sequence of draws is the one they have always made."""
    rng = np.random.default_rng(11)
    pool = IndexPool(range(5), rng)
    assert [pool.draw(n, rng) for n in (2, 3, 4, 1, 6, 2)] == [
        [1, 4], [2, 3, 0], [4, 2, 1, 0], [3], [0, 2, 1, 3, 4, 2], [3, 0]]


def test_pair_draws_never_pair_a_record_with_itself():
    """Stage one's pair draw stays within one pass, so in an odd pool one
    record sits each pass out: 3,000 draws from a 3-record pool hold two
    records each, and each pass gives out two of its three."""
    rng = np.random.default_rng(0)
    pool = IndexPool(range(3), rng)
    pairs = [pool.draw(2, rng, one_pass=True) for _ in range(3000)]
    assert all(i != j for i, j in pairs)
    assert sorted(set(i for pair in pairs for i in pair)) == [0, 1, 2]


def test_index_pool_rejects_empty():
    with pytest.raises(ConfigError):
        IndexPool([], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# task-average sampling


def test_task_average_exact_quarters(toy):
    rng = np.random.default_rng(1)
    pools = task_pools(toy["records"], rng)
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
    pools = task_pools(toy["records"], rng)
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
        task_pools(no_erc, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# polarity pair pools


def draw_pairs(pools, n_pairs, rng):
    """Stage one's draw: two records from each dealt slot's pool, in slot order."""
    return [(pol, *pools.pools[pol].draw(2, rng, one_pass=True))
            for pol in pools.deal(n_pairs)]


def test_polarity_pairs_share_their_polarity(toy):
    records = toy["records"]
    rng = np.random.default_rng(4)
    pools = polarity_pools(records, rng)
    seen = set()
    for pol, i, j in draw_pairs(pools, 12, rng):
        seen.add(pol)
        assert to_polarity(records[i].label, records[i].dataset_id) is pol
        assert to_polarity(records[j].label, records[j].dataset_id) is pol
    assert seen == set(pools.order)  # rotation reaches every pool


def test_polarity_pools_drop_small_groups(toy):
    records = [r for r in toy["records"]
               if to_polarity(r.label, r.dataset_id) is not Polarity.NEUTRAL]
    neutral_one = next(r for r in toy["records"]
                       if to_polarity(r.label, r.dataset_id) is Polarity.NEUTRAL)
    pools = polarity_pools(records + [neutral_one], np.random.default_rng(0))
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
        polarity_pools(one, np.random.default_rng(0))


def test_plan_checks_each_pools_most_framed_pair(toy, tmp_path):
    """Stage one never pairs a record with itself, so its plan checks each
    pool's two most-framed records: a three-record pool whose most-framed
    record would overflow ``max_len`` only with itself runs through many
    passes, and a pool whose two most-framed records overflow together
    fails before its first write."""
    registry, vocab = toy["registry"], toy["vocab"]
    config = small_config(vocab, registry)
    mosi = next(r for r in toy["records"] if r.dataset_id == "mosi-toy")
    pool_markers = 2 + len(answer_set_tokens(registry.spec(POOL_DATASET_ID).answer, vocab))
    room = config.max_len - pool_markers  # a pair overflows at this many frames
    most = -(-room // 2)

    def positive(frames):
        return replace(mosi, text="fine", label=1.0, image=None,
                       audio=np.zeros((frames, config.acoustic_dim), dtype=np.float32))

    records = [positive(most), positive(most - 2), positive(1)]
    a, b = (build_prompt(r, vocab, registry, config.max_len) for r in records[:2])
    combine_queries(a, b, vocab, registry, config.max_len)  # the widest distinct pair fits
    with pytest.raises(ContractError):
        combine_queries(a, a, vocab, registry, config.max_len)
    fresh = replace(config, vocab_size=0, num_datasets=0)  # sized by the run's own vocabulary
    run_pretrain_stage1(records, registry, fresh, train_cfg(max_steps=3), tmp_path / "odd")
    with pytest.raises(ContractError):
        run_pretrain_stage1([positive(most), positive(most), positive(1)], registry, fresh,
                            train_cfg(max_steps=1), tmp_path / "wide")
    assert not (tmp_path / "wide").exists()


def test_polarity_pools_state_roundtrip(toy):
    records = toy["records"]
    rng_a = np.random.default_rng(9)
    a = polarity_pools(records, rng_a)
    draw_pairs(a, 5, rng_a)
    rng_b = np.random.default_rng(9)
    b = polarity_pools(records, rng_b)
    draw_pairs(b, 5, rng_b)
    b.load_state(json.loads(json.dumps(a.state())))
    assert draw_pairs(a, 7, rng_a) == draw_pairs(b, 7, rng_b)


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
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert [l["step"] for l in lines] == [1, 2, 3, 4, 5, 6]
    assert list(lines[0]) == ["step", "stage", "mcm", "spp", "ccl", "cep", "total", "lr"]
    assert lines[0]["stage"] == "finetune"
    assert all(l["total"] > 0 and l["mcm"] == 0.0 for l in lines)
    vals = [json.loads(l) for l in (out / "val_metrics.jsonl").read_text().splitlines()]
    assert vals and set(vals[0]) == {"step", "epoch", "datasets"}
    assert set(vals[0]["datasets"]) == set(toy["registry"].dataset_ids)


def test_a_run_without_max_steps_takes_its_epochs_of_whole_batches(toy, tmp_path):
    """With ``max_steps`` null, the README's default, a run takes ``epochs``
    passes of ``len(records) // batch_size`` steps each (at least one): 24
    toy records in batches of 4 over 2 epochs log steps 1 to 12."""
    config = small_config(toy["vocab"], toy["registry"])
    assert len(toy["records"]) == 24
    run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=None, epochs=2),
                 tmp_path / "ft")
    lines = (tmp_path / "ft" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == list(range(1, 13))


def test_stage1_step_and_resume_bit_exact(toy, tmp_path):
    config = small_config(toy["vocab"], toy["registry"])
    cfg_full = train_cfg(max_steps=4, dropout_rate=0.1)
    full = run_pretrain_stage1(toy["records"], toy["registry"], config, cfg_full,
                               tmp_path / "full")
    lines = [json.loads(l) for l in (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()]
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
    lines = [json.loads(l) for l in (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()]
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
    assert ((tmp_path / "a" / "metrics.jsonl").read_text()
            == (tmp_path / "b" / "metrics.jsonl").read_text())

    half = run_finetune(toy["records"], toy["registry"], config,
                        train_cfg(max_steps=2, dropout_rate=0.1), tmp_path / "half")
    resumed = run_finetune(toy["records"], toy["registry"], config, cfg_full,
                           tmp_path / "resumed", resume_from=half)
    assert sha(a) == sha(resumed)


RUNS = {"pretrain1": (run_pretrain_stage1, "stage1_loss"),
        "pretrain2": (run_pretrain_stage2, "stage2_loss"),
        "finetune": (run_finetune, "generation_loss")}


@pytest.mark.parametrize("stage,tail", [(stage, b"") for stage in sorted(RUNS)]
                         + [("pretrain1", b"\xff\xfe\n")],
                         ids=sorted(RUNS) + ["pretrain1-not-utf8-tail"])
def test_interrupted_run_resumes_to_identical_logs(toy, tmp_path, monkeypatch, stage, tail):
    """Fault injection: a run that dies at step 5 and resumes from its step-2
    checkpoint in the same directory leaves the same logs and final
    checkpoint bytes as a run that was never interrupted. Bytes appended to
    the logs after the cut, not UTF-8 even, are dropped with the lines past
    the checkpoint."""
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
    logs = ["metrics.jsonl"] + (["val_metrics.jsonl"] if stage == "finetune" else [])
    for name in logs:
        with open(out / name, "ab") as fh:
            fh.write(tail)

    resumed = run(toy["records"], toy["registry"], config, cfg, out,
                  resume_from=out / "checkpoint_step2.ckpt")
    assert resumed.read_bytes() == full.read_bytes()
    for name in logs:
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_fault_in_log_prefix_rewrite_keeps_the_old_log(toy, tmp_path, monkeypatch):
    """Fault injection: a resume whose rewrite of the kept log lines fails
    leaves the old log whole, and a second resume still ends with the log
    and checkpoint bytes of a run that was never interrupted."""
    config = small_config(toy["vocab"], toy["registry"])
    cfg = train_cfg(max_steps=6, checkpoint_every=2, dropout_rate=0.1)
    full = run_finetune(toy["records"], toy["registry"], config, cfg, tmp_path / "full")
    out = tmp_path / "cut"
    run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=4, checkpoint_every=2,
                                                                     dropout_rate=0.1), out)
    old = (out / "metrics.jsonl").read_bytes()
    assert len(old.splitlines()) == 4

    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if ("w" in mode or "x" in mode) and Path(file).name.startswith("metrics.jsonl"):
            return TornWrite(fh, 20)
        return fh

    monkeypatch.setattr(builtins, "open", torn_open)
    with pytest.raises(ConfigError, match="injected"):
        run_finetune(toy["records"], toy["registry"], config, cfg, out,
                     resume_from=out / "checkpoint_step2.ckpt")
    monkeypatch.setattr(builtins, "open", real_open)
    assert (out / "metrics.jsonl").read_bytes() == old
    assert not list(out.glob("*.tmp"))

    resumed = run_finetune(toy["records"], toy["registry"], config, cfg, out,
                           resume_from=out / "checkpoint_step2.ckpt")
    assert resumed.read_bytes() == full.read_bytes()
    assert (out / "metrics.jsonl").read_bytes() == (tmp_path / "full" / "metrics.jsonl").read_bytes()


@pytest.mark.parametrize("stage", sorted(RUNS))
def test_each_checkpoint_is_renamed_after_its_log_lines_are_synced(toy, tmp_path, monkeypatch,
                                                                   stage):
    """Write order: when a checkpoint, periodic or final, is renamed into
    place, every log line written before it has been synced, so no machine
    stop leaves a checkpoint on disk ahead of a line it covers."""
    run = RUNS[stage][0]
    config = small_config(toy["vocab"], toy["registry"])
    cfg = train_cfg(max_steps=6, batch_size=8, checkpoint_every=2, validate_every_epochs=1,
                    max_new_tokens=2)
    out = tmp_path / "run"
    synced, renamed, unsynced = {}, [], []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        synced[st.st_ino] = max(synced.get(st.st_ino, 0), st.st_size)

    def replace_file(src, dst):
        if Path(dst).suffix == ".ckpt":
            renamed.append(Path(dst).name)
            for log in (out / "metrics.jsonl", out / "val_metrics.jsonl"):
                if log.exists() and synced.get(log.stat().st_ino, -1) < log.stat().st_size:
                    unsynced.append((Path(dst).name, log.name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace_file)
    run(toy["records"], toy["registry"], config, cfg, out)
    monkeypatch.undo()
    assert renamed == ["checkpoint_step2.ckpt", "checkpoint_step4.ckpt", "checkpoint_step6.ckpt",
                       "checkpoint.ckpt"]
    assert unsynced == []
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 6


def test_a_validation_line_is_synced_before_its_checkpoint(toy, tmp_path, monkeypatch):
    """Validation after step 3 (24 records in batches of 8) runs before that
    step's checkpoint: when ``checkpoint_step3.ckpt`` is renamed into place,
    the synced bytes of ``val_metrics.jsonl`` hold the step-3 line, so no
    machine stop after the rename can lose it."""
    config = small_config(toy["vocab"], toy["registry"])
    cfg = train_cfg(max_steps=6, batch_size=8, checkpoint_every=3, validate_every_epochs=1,
                    max_new_tokens=2)
    out = tmp_path / "run"
    val_log = out / "val_metrics.jsonl"
    synced, seen = {}, {}
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        synced[st.st_ino] = max(synced.get(st.st_ino, 0), st.st_size)

    def replace_file(src, dst):
        if Path(dst).suffix == ".ckpt":
            durable = val_log.read_bytes()[:synced.get(val_log.stat().st_ino, 0)]
            seen[Path(dst).name] = [json.loads(line)["step"] for line in durable.splitlines()]
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace_file)
    run_finetune(toy["records"], toy["registry"], config, cfg, out)
    monkeypatch.undo()
    assert seen == {"checkpoint_step3.ckpt": [3], "checkpoint_step6.ckpt": [3, 6],
                    "checkpoint.ckpt": [3, 6]}


@pytest.mark.parametrize("val_steps", [[], [3, 6]], ids=["emptied", "uncut"])
def test_resume_refuses_a_validation_log_cut_short_of_its_checkpoint(toy, tmp_path, val_steps):
    """Validation after steps 3 and 6 (24 records in batches of 8), a
    checkpoint every 3: with ``metrics.jsonl`` cut back to the step-3
    checkpoint, a ``val_metrics.jsonl`` emptied, the durable state had the
    step-3 line been lost, is a one-line ConfigError before the resume
    writes anything, as appending from step 4 would leave it without step
    3. One whose step-6 line is past the checkpoint keeps its step-3 line
    and resumes to the uninterrupted run's bytes."""
    config = small_config(toy["vocab"], toy["registry"])
    cfg = train_cfg(max_steps=6, batch_size=8, checkpoint_every=3, validate_every_epochs=1,
                    max_new_tokens=2)
    full = run_finetune(toy["records"], toy["registry"], config, cfg, tmp_path / "full")
    out = tmp_path / "run"
    run_finetune(toy["records"], toy["registry"], config, cfg, out)
    metrics, val_log = out / "metrics.jsonl", out / "val_metrics.jsonl"
    metrics.write_text("".join(metrics.read_text().splitlines(keepends=True)[:3]))
    val_lines = val_log.read_text().splitlines(keepends=True)
    assert [json.loads(line)["step"] for line in val_lines] == [3, 6]
    val_log.write_text("".join(val_lines[:len(val_steps)]))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    resume = lambda: run_finetune(toy["records"], toy["registry"], config, cfg, out,
                                  resume_from=out / "checkpoint_step3.ckpt")
    if not val_steps:
        with pytest.raises(ConfigError) as err:
            resume()
        assert str(err.value) == (f"{val_log}: log ends at step 0, not at step 3, the last "
                                  "validation due by its checkpoint's step 3")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        return
    assert resume().read_bytes() == full.read_bytes()
    for name in ("metrics.jsonl", "val_metrics.jsonl"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_a_failed_log_sync_is_config_error(toy, tmp_path, monkeypatch):
    """A log that cannot be synced stops the run with a one-line
    ConfigError naming it, before the checkpoint it would precede."""
    config = small_config(toy["vocab"], toy["registry"])
    out = tmp_path / "run"
    real_fsync = os.fsync

    def fsync(fd):
        log = out / "metrics.jsonl"
        if log.exists() and os.fstat(fd).st_ino == log.stat().st_ino:
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(ConfigError, match=r"cannot sync .*metrics\.jsonl \(Input/output error\)"):
        run_finetune(toy["records"], toy["registry"], config,
                     train_cfg(max_steps=4, checkpoint_every=2), out)
    assert not list(out.glob("*.ckpt*"))


def test_a_log_that_cannot_be_written_is_one_line_config_error(toy, tmp_path):
    """A log whose path cannot be written, a directory here, is a one-line
    ConfigError naming it, raised after the manifest is written."""
    out = tmp_path / "run"
    (out / "val_metrics.jsonl").mkdir(parents=True)
    config = small_config(toy["vocab"], toy["registry"])
    with pytest.raises(ConfigError) as err:
        run_finetune(toy["records"], toy["registry"], config,
                     train_cfg(max_steps=1, validate_every_epochs=1), out)
    assert str(err.value) == f"cannot write {out / 'val_metrics.jsonl'} (Is a directory)"
    assert sorted(path.name for path in out.iterdir()) == ["manifest-finetune.json", "metrics.jsonl",
                                                          "val_metrics.jsonl"]


def test_a_failed_manifest_write_leaves_the_directorys_logs_whole(toy, tmp_path):
    """A fresh run into a directory that holds a run writes its manifest
    before it empties any log, so a manifest that cannot be written leaves
    the earlier run's logs as they were."""
    out = tmp_path / "run"
    config = small_config(toy["vocab"], toy["registry"])
    cfg = train_cfg(max_steps=3, batch_size=8, validate_every_epochs=1, max_new_tokens=2)
    run_finetune(toy["records"], toy["registry"], config, cfg, out)
    logs = {name: (out / name).read_bytes() for name in ("metrics.jsonl", "val_metrics.jsonl")}
    (out / "manifest-finetune.json").unlink()
    (out / "manifest-finetune.json").mkdir()
    with pytest.raises(ConfigError, match=r"cannot write .*manifest-finetune\.json"):
        run_finetune(toy["records"], toy["registry"], config, cfg, out)
    assert {name: (out / name).read_bytes() for name in logs} == logs
    assert all(logs.values())


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


@pytest.mark.parametrize("stage", sorted(RUNS))
def test_one_prompt_per_record_per_run(toy, tmp_path, monkeypatch, stage):
    """Every stage builds each record's prompt once per run, into the run's
    prompt table, however many steps it takes: stage one joins its pairs
    from the table."""
    real, calls = training.build_prompt, []
    monkeypatch.setattr(training, "build_prompt",
                        lambda record, *args: calls.append(record) or real(record, *args))
    config = small_config(toy["vocab"], toy["registry"])
    RUNS[stage][0](toy["records"], toy["registry"], config,
                   train_cfg(max_steps=5, centroid_refresh_every=2), tmp_path)
    assert calls == toy["records"]


def test_validation_prompts_are_built_once_per_run(toy, tmp_path, monkeypatch):
    """Fine-tuning builds each ``val_records`` prompt once per run, in its
    plan, however many validation passes it makes."""
    from sentigen import evaluation
    val = [replace(r) for r in toy["records"][::2]]  # equal records, told apart by identity
    calls = []
    for module in (training, evaluation):
        monkeypatch.setattr(module, "build_prompt",
                            lambda record, *args, real=module.build_prompt:
                            calls.append(record) or real(record, *args))
    config = small_config(toy["vocab"], toy["registry"])
    steps = 2 * (len(toy["records"]) // 4)  # two epochs of batch 4
    run_finetune(toy["records"], toy["registry"], config,
                 train_cfg(max_steps=steps, validate_every_epochs=1, max_new_tokens=3), tmp_path,
                 val_records=val)
    assert len((tmp_path / "val_metrics.jsonl").read_text().splitlines()) == 2
    assert [r for r in calls if any(r is v for v in val)] == val
    assert len(calls) == len(toy["records"]) + len(val)


def test_a_non_finite_step_loss_stops_the_run_before_it_updates_or_logs(toy, tmp_path,
                                                                        monkeypatch):
    """A step whose loss is not finite is a NumericError naming the step,
    raised before the optimizer takes the step or the log records it."""
    real, seen = training.generation_loss, []

    def loss(*args, **kwargs):
        total = real(*args, **kwargs)
        seen.append(total)
        return total if len(seen) < 2 else ad.add(total, ad.constant(np.nan))

    monkeypatch.setattr(training, "generation_loss", loss)
    config = small_config(toy["vocab"], toy["registry"])
    with pytest.raises(NumericError, match="non-finite loss at step 2"):
        run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=3), tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == [1]


def test_a_non_finite_stage1_reconstruction_stops_the_run_before_it_updates_or_logs(
        toy, tmp_path, monkeypatch):
    """Stage one's twin of the test above, through its split step: a NaN
    reconstruction term, which stage one backpropagates before the rest of
    its loss exists, is still the NumericError naming the step, raised
    before the optimizer takes the step or the log records it, and never
    reaches ``ad.backward``."""
    real, real_backward, calls, backprop, steps = objectives.loss_mcm, ad.backward, [], [], []

    def loss(*args, **kwargs):
        calls.append(True)
        out = real(*args, **kwargs)
        return out if len(calls) < 2 else ad.add(out, ad.constant(np.nan))

    def backward(loss, grads=None):
        backprop.append(loss.item())
        return real_backward(loss, grads)

    monkeypatch.setattr(objectives, "loss_mcm", loss)
    monkeypatch.setattr(ad, "backward", backward)
    monkeypatch.setattr(training.Adam, "step", lambda adam, grads: steps.append(adam.t))
    config = small_config(toy["vocab"], toy["registry"])
    with pytest.raises(NumericError, match="non-finite loss at step 2: mcm=nan"):
        run_pretrain_stage1(toy["records"], toy["registry"], config, train_cfg(max_steps=3),
                            tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == [1]
    assert len(steps) == 1 and len(backprop) == 2 and np.isfinite(backprop).all()


@pytest.mark.parametrize("stage", sorted(RUNS))
def test_step_graph_is_freed_before_the_next_step(toy, tmp_path, monkeypatch, stage):
    """One step graph is alive at a time: a vertex of step k's graph is
    freed before step k + 1 builds its loss. The weak reference is to a
    ``layer_norm`` vertex, not to an array: its output tensor is gone by the
    time the loss is built, and backward drops the arrays its rule holds."""
    run, name = RUNS[stage]
    real, held = getattr(training, name), []

    def watched(*args, **kwargs):
        assert all(ref() is None for ref in held), "the previous step's graph is still alive"
        out = real(*args, **kwargs)
        total = out if isinstance(out, ad.Tensor) else out[1]
        held.append(weakref.ref(next(v for v in ad._topological_order(total)
                                     if v.op == "layer_norm")))
        return out

    monkeypatch.setattr(training, name, watched)
    config = small_config(toy["vocab"], toy["registry"])
    run(toy["records"], toy["registry"], config, train_cfg(max_steps=3), tmp_path)
    assert len(held) == 3


def test_stage1_step_holds_one_pass_graph_at_a_time(toy, tmp_path, monkeypatch):
    """Within a stage-one step, the corrupted pass's graph is freed before
    the clean pass is encoded: a weak reference to a ``layer_norm`` vertex
    of the corrupted pass is dead when the clean pass's ``encode_batch`` is
    called, at every step."""
    real, held, checked = objectives.encode_batch, [], []

    def watched(*args, mask_plans=None, **kwargs):
        if mask_plans is None:
            assert held and held[-1]() is None, "the corrupted pass's graph is still alive"
            checked.append(True)
        out = real(*args, mask_plans=mask_plans, **kwargs)
        if mask_plans is not None:
            held.append(weakref.ref(next(v for v in ad._topological_order(out.states)
                                         if v.op == "layer_norm")))
        return out

    monkeypatch.setattr(objectives, "encode_batch", watched)
    config = small_config(toy["vocab"], toy["registry"])
    run_pretrain_stage1(toy["records"], toy["registry"], config,
                        train_cfg(max_steps=3, dropout_rate=0.1), tmp_path)
    assert len(held) == len(checked) == 3


# by op, the parents whose arrays its backward rule reads (-2: layer_norm's
# gain, with or without a residual); ``sqrt``'s rule reads its own output
RULE_READS = {"mul": (0, 1), "div": (0, 1), "linear": (0, 1),
              "attention": (0, 3), "ffn": (0, 1, 2, 3),
              "pair_contrast": (0,), "layer_norm": (-2,), "token_loss": (0,)}


def test_first_stage_one_backward_holds_no_output_that_no_rule_reads(toy, tmp_path, monkeypatch):
    """At each of the two backwards of a first d=16 stage-one step with
    dropout on (the corrupted pass's, then the clean pass's), every op
    output still alive is the loss or an array some rule holds, and a rule
    holds an op output, or a view of one, only when it reads it: its own
    (``sqrt``'s) or a parent's that ``RULE_READS`` names for its op. A rule
    holding a tensor holds its data."""
    real_make, real_backward, made, checked = ad._make, ad.backward, [], []

    def make(*args):
        out = real_make(*args)
        if out.node is not None:
            made.append((weakref.ref(out.node), weakref.ref(out.data)))
        return out

    def probe(loss, grads=None):
        output = {}  # id of a vertex -> its output array, while both live
        for node_ref, data_ref in made:
            node, data = node_ref(), data_ref()
            if node is not None and data is not None:
                output[id(node)] = data
        outputs = {id(a) for a in output.values()}
        held = set()
        for v in ad._topological_order(loss):
            if type(v) is not ad.Node:
                continue
            reads = {id(output.get(id(v.inputs[i]))) for i in RULE_READS.get(v.op, ())}
            if v.op == "sqrt":
                reads.add(id(output.get(id(v))))
            for a in graph_bytes.rule_arrays(v.rule):
                while isinstance(a, np.ndarray):  # the array and each it views
                    held.add(id(a))
                    assert id(a) not in outputs or id(a) in reads, \
                        f"a {v.op} rule holds an op output it does not read"
                    a = a.base
        stray = outputs - held - {id(loss.data)}
        assert not stray, f"{len(stray)} op outputs no rule reads are alive at backward"
        checked.append(len(output))
        return real_backward(loss, grads)

    monkeypatch.setattr(ad, "_make", make)
    monkeypatch.setattr(ad, "backward", probe)
    config = small_config(toy["vocab"], toy["registry"])
    run_pretrain_stage1(toy["records"], toy["registry"], config,
                        train_cfg(max_steps=1, dropout_rate=0.1), tmp_path)
    assert len(checked) == 2 and min(checked) > 0


def test_first_stage_one_backward_holds_no_hidden_rows_and_no_heads_outputs(toy, tmp_path,
                                                                            monkeypatch):
    """At the first backward of a first d=16 stage-one step (the corrupted
    pass's), no FFN's (N, ffn) hidden rows, before or after their GELU, and
    no attention block's (N, d) heads' outputs, before their output
    projection, are alive: each ``ffn`` and ``attention`` node rebuilds
    them in its rule, so no rule, nor anything else, holds them."""
    real_attend, real_by_rows, real_backward = ad._attend, ad._by_rows, ad.backward
    made, alive = [], []

    def attend(*args):
        out = real_attend(*args)
        made.append(("heads' outputs", weakref.ref(out[0])))
        return out

    def by_rows(kernel, ins, shapes):
        outs = real_by_rows(kernel, ins, shapes)
        if kernel is ad._gelu_rows:
            made.extend(("hidden rows", weakref.ref(a)) for a in (ins[0],) + outs)
        return outs

    def probe(loss, grads=None):
        if not alive:
            alive.append([name for name, ref in made if ref() is not None])
        return real_backward(loss, grads)

    monkeypatch.setattr(ad, "_attend", attend)
    monkeypatch.setattr(ad, "_by_rows", by_rows)
    monkeypatch.setattr(ad, "backward", probe)
    config = small_config(toy["vocab"], toy["registry"])
    run_pretrain_stage1(toy["records"], toy["registry"], config,
                        train_cfg(max_steps=1, dropout_rate=0.1), tmp_path)
    assert {name for name, _ in made} == {"heads' outputs", "hidden rows"}
    assert alive == [[]]


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
    lines = [json.loads(l) for l in (tmp_path / "ft" / "metrics.jsonl").read_text().splitlines()]
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


def poison_gradient(monkeypatch, params, value, at_call=1):
    """Make the ``at_call``-th ``ad.backward`` and every later one return
    ``value`` in one gradient of ``params`` (a dict, or a callable giving it)."""
    real, calls = ad.backward, []

    def poisoned(loss, grads=None):
        grads = real(loss, grads)
        calls.append(True)
        if len(calls) >= at_call:
            grads[(params() if callable(params) else params)["w_text"]][0, 0] = value
        return grads

    monkeypatch.setattr(ad, "backward", poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_gradient_stops_before_the_update(toy, tmp_path, monkeypatch, value):
    """A NaN or infinite gradient is a NumericError naming the step, raised
    before Adam moves any parameter or moment."""
    config = small_config(toy["vocab"], toy["registry"])
    run = training._Run("finetune", toy["records"], toy["registry"], config,
                        train_cfg(max_steps=1), tmp_path / "run")
    run.step = 3
    poison_gradient(monkeypatch, run.params, value)
    params = {name: p.data.copy() for name, p in run.params.items()}
    moments = {name: a.copy() for name, a in run.adam.state_arrays().items()}
    total = sum_of(matmul(run.params["tok_emb"], run.params["w_text"]))
    with pytest.raises(NumericError, match="gradient norm .* at step 3"):
        run.optimize(total, None)
    assert run.adam.t == 0
    assert all(np.array_equal(p.data, params[name]) for name, p in run.params.items())
    assert all(np.array_equal(a, moments[name]) for name, a in run.adam.state_arrays().items())


def test_no_gradient_outlives_the_step(toy, tmp_path, monkeypatch):
    """Gradients are values: once ``_Run.optimize`` returns, no array that
    ``ad.backward`` returned is alive, clipped or not, and neither is the
    flat vector they were gathered into."""
    real_backward, real_optimize, refs, checked = ad.backward, training._Run.optimize, [], []
    real_clip, vectors = training.clip_gradients, []

    def backward(loss, grads=None):
        grads = real_backward(loss, grads)
        refs.extend(weakref.ref(g) for g in grads.values())
        return grads

    def clip(grads, max_norm):
        vectors.append(weakref.ref(grads.vector))
        return real_clip(grads, max_norm)

    def optimize(run, total, grads):
        real_optimize(run, total, grads)
        assert refs and all(ref() is None for ref in refs), "a gradient outlived its step"
        assert len(vectors) == 1 and vectors[0]() is None, "the gradient vector outlived its step"
        checked.append(len(refs))
        refs.clear()
        vectors.clear()

    monkeypatch.setattr(ad, "backward", backward)
    monkeypatch.setattr(training, "clip_gradients", clip)
    monkeypatch.setattr(training._Run, "optimize", optimize)
    config = small_config(toy["vocab"], toy["registry"])
    for clip in (1e-6, 0.0):  # every step clipped, then none
        checked.clear()
        run_finetune(toy["records"], toy["registry"], config,
                     train_cfg(max_steps=2, grad_clip=clip), tmp_path / f"clip{clip}")
        assert len(checked) == 2


def test_non_finite_gradient_reaches_no_checkpoint(toy, tmp_path, monkeypatch):
    """A run whose second step's gradient turns NaN stops at that step, and
    no periodic checkpoint holds the update it would have made."""
    config = small_config(toy["vocab"], toy["registry"])
    runs = []
    real_init = training._Run.__init__

    def tracked(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runs.append(self)

    monkeypatch.setattr(training._Run, "__init__", tracked)
    poison_gradient(monkeypatch, lambda: runs[-1].params, np.nan, at_call=2)
    out = tmp_path / "ft"
    with pytest.raises(NumericError, match="at step 2"):
        run_finetune(toy["records"], toy["registry"], config,
                     train_cfg(max_steps=4, checkpoint_every=1), out)
    assert (out / "checkpoint_step1.ckpt").exists()
    assert not list(out.glob("checkpoint_step[2-9].ckpt")) and not (out / "checkpoint.ckpt").exists()
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 1


# a value, or a function of the saved value
BAD_META = {"vocab": [None, "abc", [1, 2], ["<pad>"]], "vocab_datasets": [None, "5"],
            "vocab_speakers": [True], "step": [None, 2.0, -3], "adam_t": ["1", -1, 0, 2],
            "rng": [None, {"data": 3},
                    lambda v: {k: s for k, s in v.items() if k != "dropout"},
                    lambda v: {**v, "init": v["data"]}]}


@pytest.mark.parametrize("field", sorted(BAD_META))
def test_bad_checkpoint_meta_is_config_error(toy, tmp_path, field):
    """Every checkpoint field the loader or a resume reads is checked, so a
    missing, mistyped or inconsistent one is a ConfigError, never a raw
    KeyError or a run that resumes from it: a negative step, an Adam count
    other than the step, or RNG streams other than data, mask and dropout."""
    from sentigen.model import load_checkpoint, save_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    bad = tmp_path / "bad.ckpt"
    # a fresh run started from a checkpoint reads only the vocabulary fields
    uses = ["resume_from"] + (["init_checkpoint"] if field.startswith("vocab") else [])
    missing = {k: v for k, v in meta.items() if k != field}
    for broken in [missing] + [{**meta, field: v(meta[field]) if callable(v) else v}
                               for v in BAD_META[field]]:
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
    **{f"pools-rotation={r!r}": ("pools", lambda v, r=r: {**v, "rotation": r})
       for r in (7, -2, 1.9, True, "2")},
    "pools-extra-key": ("pools", lambda v: {**v, "pools": {
        **v["pools"], "other": next(iter(v["pools"].values()))}}),
    "pools-float-perm": ("pools", lambda v: {**v, "pools": {
        k: {**p, "perm": [i + 0.2 for i in p["perm"]]} for k, p in v["pools"].items()}}),
    **{f"pools-cursor={c!r}": ("pools", lambda v, c=c: {**v, "pools": {
        k: {**p, "cursor": c} for k, p in v["pools"].items()}})
       for c in (1.9, True)},
}


@pytest.mark.parametrize("case", sorted(BAD_RESUME_STATE))
def test_bad_resume_state_is_config_error(toy, tmp_path, case):
    """The sampling state a resume restores is checked too: a malformed one
    is a ConfigError naming the field."""
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


# each takes the saved arrays and returns them with one Adam moment broken
BAD_OPTIMIZER_STATE = {
    "adam_m-missing": lambda arrays: {k: a for k, a in arrays.items() if k != "adam_m/w_text"},
    "adam_v-misshapen": lambda arrays: {**arrays, "adam_v/w_text": arrays["adam_v/w_text"][:, 1:]},
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIMIZER_STATE))
def test_bad_optimizer_state_is_config_error(toy, tmp_path, case):
    """A resume copies the checkpoint's Adam moments into the arena: a
    moment that is missing, or of another shape than its parameter, is a
    ConfigError naming it, raised before the run writes anything."""
    from sentigen.model import load_checkpoint, save_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ck_config, BAD_OPTIMIZER_STATE[case](arrays), meta=meta)
    key = case.split("-")[0] + "/w_text"
    with pytest.raises(ConfigError, match=f"optimizer state '{key}' is missing or misshapen"):
        run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=2),
                     tmp_path / "resume", resume_from=bad)
    assert not (tmp_path / "resume").exists()


@pytest.mark.parametrize("entry", ["param/type_emb", "adam_m/w_text", "adam_v/dec0_ln1_g"])
def test_an_integer_parameter_or_moment_is_config_error(toy, tmp_path, entry):
    """Only ``pseudo`` is saved as int64. A parameter or Adam moment stored
    as int64 would be cast to float64 and trained on, so it is a ConfigError
    naming the entry, through ``load_model``, an init and a resume, before
    the run writes anything."""
    from sentigen.model import load_checkpoint, save_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ck_config, {**arrays, entry: arrays[entry].astype(np.int64)}, meta=meta)
    assert load_checkpoint(bad)[1][entry].dtype == np.int64
    with pytest.raises(ConfigError, match=f"'{entry}' is int64, not float64"):
        training.load_model(bad, toy["registry"])
    for use in ("init_checkpoint", "resume_from"):
        with pytest.raises(ConfigError, match=f"'{entry}' is int64, not float64"):
            run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=2),
                         tmp_path / use, **{use: bad})
        assert not (tmp_path / use).exists()


def _with(v, row, col, value):
    out = v.copy()
    out[row, col] = value
    return out


# each takes the saved (N, T) pseudo-label matrix and the label table's sizes
BAD_STAGE2_STATE = {
    "pseudo=[]": lambda v, sizes: v[:0],
    "pseudo-short": lambda v, sizes: v[:-1],
    "pseudo=None": lambda v, sizes: None,
    "pseudo-wrong-ndim": lambda v, sizes: v[:, 0],
    "pseudo-float": lambda v, sizes: v.astype(np.float64),
    "pseudo-extra-column": lambda v, sizes: np.concatenate([v, v[:, :1]], axis=1),
    "pseudo-missing-task": lambda v, sizes: v[:, 1:],
    "pseudo-negative": lambda v, sizes: _with(v, 0, 0, -1),
    "pseudo-label-outside-table": lambda v, sizes: _with(v, -1, 2, sizes[2]),
}


@pytest.mark.parametrize("case", sorted(BAD_STAGE2_STATE))
def test_bad_stage2_resume_state_is_config_error(toy, tmp_path, case):
    """Stage two's pseudo labels are the checkpoint array ``pseudo``: an
    int64 (records, tasks) matrix of indices into each task's label table.
    One of another shape or dtype, an index outside its table, or none at
    all after a step, is a ConfigError on resume, before the run writes
    anything. Centroid vectors are not checkpointed."""
    from sentigen.model import load_checkpoint, save_checkpoint
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_pretrain_stage2(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                             tmp_path / "seed")
    ck_config, arrays, meta = load_checkpoint(ck)
    keys = {}
    for r in toy["records"]:
        keys.setdefault(r.task_type, set()).add(toy["registry"].spec(r.dataset_id).answer
                                                .render(r.label))
    sizes = [len(keys[t]) for t in TASK_ORDER if t in keys]
    assert arrays["pseudo"].dtype == np.int64 and arrays["pseudo"].shape == \
        (len(toy["records"]), len(sizes))
    assert "pseudo" not in meta and "centroids" not in meta
    bad = tmp_path / "bad.ckpt"
    corrupt = BAD_STAGE2_STATE[case](arrays.pop("pseudo"), sizes)
    save_checkpoint(bad, ck_config, arrays if corrupt is None else {**arrays, "pseudo": corrupt},
                    meta=meta)
    with pytest.raises(ConfigError, match="pseudo"):
        run_pretrain_stage2(toy["records"], toy["registry"], config,
                            train_cfg(max_steps=3, centroid_refresh_every=100),
                            tmp_path / "resume", resume_from=bad)
    assert not (tmp_path / "resume").exists()


def test_stage2_label_collision_fails_before_logs(toy, tmp_path):
    """A label table whose representative tokens collide is a
    VocabularyError when stage two starts, not inside its first step, so
    nothing is written. Outside the checkpoint's vocabulary 'bobcat' and
    'cat' both end in the piece 't'."""
    from dataclasses import replace
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=0),
                      tmp_path / "seed")
    spec = toy["registry"].to_json()
    spec["meld-toy"]["answer_set"] = ["bobcat", "cat", "neutral"]
    rename = {"anger": "bobcat", "joy": "cat"}
    records = [replace(r, label=rename.get(r.label, r.label)) if r.dataset_id == "meld-toy" else r
               for r in toy["records"]]
    with pytest.raises(VocabularyError, match="erc"):
        run_pretrain_stage2(records, Registry.from_json(spec), config, train_cfg(),
                            tmp_path / "s2", init_checkpoint=ck)
    assert not (tmp_path / "s2").exists()


def test_a_run_sweeps_the_temp_files_of_killed_writes(toy, tmp_path):
    """The temp files that killed writes of a run's checkpoints and logs
    left (``<name>.<pid>-<n>.tmp``) are gone after the next run into that
    directory; a ``.tmp`` file of another name stays."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("checkpoint.ckpt.99999-0.tmp", "metrics.jsonl.1-2.tmp", "notes.tmp"):
        (out / name).write_bytes(b"cut")
    run_finetune(toy["records"], toy["registry"], small_config(toy["vocab"], toy["registry"]),
                 train_cfg(max_steps=1), out)
    assert sorted(p.name for p in out.glob("*.tmp")) == ["notes.tmp"]


def test_checkpoint_write_is_atomic(toy, tmp_path, monkeypatch):
    """A write that fails partway through the payload leaves the previous
    checkpoint's bytes in place and no temporary file behind."""
    import sentigen.data as data
    import sentigen.model as model
    config = small_config(toy["vocab"], toy["registry"])
    ck = run_finetune(toy["records"], toy["registry"], config, train_cfg(max_steps=1),
                      tmp_path / "run")
    before = ck.read_bytes()
    names = sorted(p.name for p in ck.parent.iterdir())
    ck_config, arrays, meta = model.load_checkpoint(ck)
    arrays["param/w_text"] = arrays["param/w_text"] + 1.0

    real_open = open
    monkeypatch.setattr(data, "open", lambda *a, **k: TornWrite(real_open(*a, **k), 1000),
                        raising=False)
    with pytest.raises(ConfigError, match="injected"):
        model.save_checkpoint(ck, ck_config, arrays, meta=meta)
    monkeypatch.undo()
    assert ck.read_bytes() == before
    assert sorted(p.name for p in ck.parent.iterdir()) == names
    model.save_checkpoint(ck, ck_config, arrays, meta=meta)
    assert ck.read_bytes() != before
    assert np.array_equal(model.load_checkpoint(ck)[1]["param/w_text"], arrays["param/w_text"])


def test_last_periodic_checkpoint_is_serialized_once(toy, tmp_path, monkeypatch):
    """When the last step is also a checkpoint step, its periodic checkpoint
    and the final one come from one serialization, each written atomically
    and synced, byte for byte the same; an earlier periodic one stays apart."""
    import sentigen.model as model
    config = small_config(toy["vocab"], toy["registry"])
    saves, writes = [], []
    real_save, real_write = training.save_checkpoint, model.write_file_atomic

    def save(path, *args, **kwargs):
        saves.append(Path(path).name)
        return real_save(path, *args, **kwargs)

    def write(path, chunks, sync=False):
        writes.append((Path(path).name, sync))
        return real_write(path, chunks, sync)

    monkeypatch.setattr(training, "save_checkpoint", save)
    monkeypatch.setattr(model, "write_file_atomic", write)
    for steps in (4, 5):
        out = tmp_path / f"steps{steps}"
        saves.clear()
        writes.clear()
        final = run_finetune(toy["records"], toy["registry"], config,
                             train_cfg(max_steps=steps, checkpoint_every=2), out)
        assert final == out / "checkpoint.ckpt"
        step4 = (out / "checkpoint_step4.ckpt").read_bytes()
        assert (step4 == final.read_bytes()) == (steps == 4)
        assert saves == (["checkpoint_step2.ckpt", "checkpoint_step4.ckpt"] if steps == 4 else
                         ["checkpoint_step2.ckpt", "checkpoint_step4.ckpt", "checkpoint.ckpt"])
        assert writes == [(name, True) for name in ("checkpoint_step2.ckpt",
                                                    "checkpoint_step4.ckpt", "checkpoint.ckpt")]
        assert sorted(p.name for p in out.glob("*.ckpt*")) == sorted(name for name, _ in writes)


def test_stage1_step_graph_holds_what_backward_reads(toy, tmp_path, monkeypatch):
    """Memory guard: the bytes alive at each of a toy stage-one step's two
    ``backward`` calls (d=16, batch 24, dropout 0.1), traced by
    ``tracemalloc`` from before the run starts, stay at most 2,120 KB. The
    graph keeps no padded copies of attention's q, k and v, no float64
    dropout masks, no gathered rows or partial sums of the encoder's input,
    no op output that no rule reads, and one encoder pass at a time. The
    corrupted half reads about 1,550 KB and the clean half 1,630 KB; one
    backward over both passes' graphs reads 2,620 KB: the bound sits
    halfway between."""
    import tracemalloc
    config = small_config(toy["vocab"], toy["registry"], dropout_rate=0.1)
    real, live = ad.backward, []

    def measured(loss, grads=None):
        live.append(tracemalloc.get_traced_memory()[0])
        return real(loss, grads)

    monkeypatch.setattr(ad, "backward", measured)
    tracemalloc.start()
    try:
        run_pretrain_stage1(toy["records"], toy["registry"], config,
                            train_cfg(max_steps=1, batch_size=24, dropout_rate=0.1), tmp_path)
    finally:
        tracemalloc.stop()
    assert len(live) == 2 and max(live) <= 2120 * 1024, [f"{b / 1024:.0f} KB" for b in live]


def test_gold_token_ids_render_labels(toy):
    record = next(r for r in toy["records"] if r.dataset_id == "mosi-toy")
    ids = gold_token_ids(record, toy["registry"], toy["vocab"])
    assert ids, "scalar labels must tokenize"
    from sentigen.prompt import detokenize
    assert detokenize(ids, toy["vocab"]).replace(" ", "") == f"{float(record.label):.1f}"
