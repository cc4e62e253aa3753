import math
import string

import numpy as np
import pytest

from sentigen import autodiff as ad
from sentigen.data import Polarity, TASK_ORDER, TaskType
from sentigen.errors import ContractError, VocabularyError
from sentigen.masking import sample_mcm_plan
from sentigen.model import encode, init_params
from sentigen.objectives import (CentroidIndex, PseudoLabelSet, Stage1Example, Stage2Example,
                                 assign_pseudo_labels, build_centroids, generation_loss,
                                 label_token_id, loss_ccl, loss_cep, loss_mcm, loss_spp,
                                 polarity_token_ids, stage1_loss,
                                 stage2_loss)
from sentigen.prompt import build_prompt

from conftest import small_config


@pytest.fixture(scope="module")
def rig(toy):
    vocab, registry = toy["vocab"], toy["registry"]
    config = small_config(vocab, registry)
    params = init_params(config, np.random.default_rng(7))
    uniform = init_params(config, np.random.default_rng(7))
    uniform["tok_emb"].data[:] = 0.0  # output logits collapse to all-zero rows
    by_ds = {}
    for r in toy["records"]:
        by_ds.setdefault(r.dataset_id, []).append(r)
    ps = {d: build_prompt(rs[0], vocab, registry, config.max_len) for d, rs in by_ds.items()}
    return {"vocab": vocab, "registry": registry, "config": config,
            "params": params, "uniform": uniform, "prompts": ps, "by_ds": by_ds}


def plan_for(rig_, dataset, p=1.0, seed=0):
    return sample_mcm_plan(rig_["prompts"][dataset], p, np.random.default_rng(seed),
                           rig_["vocab"])


def letters_in_vocab(vocab, n):
    got = [c for c in string.ascii_lowercase if c in vocab]
    assert len(got) >= n
    return got[:n]


def four_task_index(vocab, sizes=(4, 7, 3, 2), dim=16, seed=0):
    rng = np.random.default_rng(seed)
    letters = letters_in_vocab(vocab, sum(sizes))
    it = iter(letters)
    items = []
    labels = {}
    for task, size in zip(TASK_ORDER, sizes):
        labels[task] = [next(it) for _ in range(size)]
        for lab in labels[task]:
            items.append((task, lab, rng.normal(size=dim)))
    return build_centroids(items), labels


# ---------------------------------------------------------------------------
# reconstruction


def test_polarity_token_ids_map_to_surfaces(rig):
    vocab = rig["vocab"]
    ids = polarity_token_ids(vocab)
    assert len(set(ids)) == 3
    assert tuple(vocab.surface(i) for i in ids) == ("positive", "negative", "neutral")


def test_mcm_uniform_model_gives_log_vocab_per_mask(rig):
    vocab, config = rig["vocab"], rig["config"]
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy")),
             (rig["prompts"]["meld-toy"], plan_for(rig, "meld-toy"))]
    n = sum(len(plan.masked_token_positions) for _, plan in batch)
    assert n > 0
    loss = loss_mcm(batch, rig["uniform"], config, vocab)
    want = math.log(len(vocab)) * n / len(batch)
    assert abs(loss.item() - want) < 1e-9


def test_mcm_without_masked_positions_is_zero(rig):
    plan = plan_for(rig, "sst-toy", p=0.0)
    assert plan.masked_token_positions == ()
    loss = loss_mcm([(rig["prompts"]["sst-toy"], plan)], rig["params"], rig["config"],
                    rig["vocab"])
    assert loss.item() == 0.0


def test_mcm_empty_batch(rig):
    with pytest.raises(ContractError):
        loss_mcm([], rig["params"], rig["config"], rig["vocab"])


# ---------------------------------------------------------------------------
# polarity prediction


def test_spp_uniform_model_gives_log3(rig):
    batch = [(rig["prompts"]["sst-toy"], Polarity.NEGATIVE),
             (rig["prompts"]["mosi-toy"], Polarity.POSITIVE)]
    loss = loss_spp(batch, rig["uniform"], rig["config"], rig["vocab"])
    assert abs(loss.item() - math.log(3)) < 1e-9


def test_spp_trained_params_finite(rig):
    loss = loss_spp([(rig["prompts"]["sst-toy"], Polarity.NEUTRAL)], rig["params"],
                    rig["config"], rig["vocab"])
    assert np.isfinite(loss.item()) and loss.item() > 0.0


# ---------------------------------------------------------------------------
# contrastive pull


def vec(*vals):
    return ad.constant(np.array(vals, dtype=np.float64))


def test_ccl_hand_case(rig):
    pooled = [vec(0.0), vec(1.0), vec(3.0)]
    labels = [Polarity.POSITIVE, Polarity.POSITIVE, Polarity.NEGATIVE]
    loss = loss_ccl(pooled, labels)
    assert abs(loss.item() - (0.25 + 1.0 / 3.0)) < 1e-6


def test_ccl_extremes_and_scale_invariance():
    rng = np.random.default_rng(3)
    pts = [rng.normal(size=4) for _ in range(5)]
    same = loss_ccl([ad.constant(p) for p in pts], ["x"] * 5)
    assert abs(same.item() - 5.0) < 1e-12
    distinct = loss_ccl([ad.constant(p) for p in pts], list("abcde"))
    assert distinct.item() == 0.0
    labels = ["a", "b", "a", "b", "a"]
    base = loss_ccl([ad.constant(p) for p in pts], labels).item()
    tiny = loss_ccl([ad.constant(p * 1e-9) for p in pts], labels).item()
    assert 0.0 <= base <= 5.0
    assert abs(base - tiny) < 1e-9


def test_ccl_zero_distance_pairs_drop_out():
    a = ad.constant(np.array([1.0, 2.0]))
    b = ad.constant(np.array([1.0, 2.0]))
    c = ad.constant(np.array([5.0, 5.0]))
    loss = loss_ccl([a, b, c], ["p", "p", "n"])
    assert loss.item() == 0.0  # the only same-label pair has zero distance


def test_ccl_polarity_and_string_labels_agree():
    pts = [np.array([0.0]), np.array([1.0]), np.array([3.0])]
    with_enum = loss_ccl([ad.constant(p) for p in pts],
                         [Polarity.POSITIVE, Polarity.POSITIVE, Polarity.NEGATIVE]).item()
    with_str = loss_ccl([ad.constant(p) for p in pts],
                        ["positive", "positive", "negative"]).item()
    assert with_enum == with_str


def test_ccl_contract_errors():
    with pytest.raises(ContractError):
        loss_ccl([ad.constant(np.zeros(2))], [])
    with pytest.raises(ContractError):
        loss_ccl([], [])


def test_ccl_gradient_matches_finite_differences():
    x = ad.Tensor(np.array([[0.0, 0.0], [1.0, 0.5], [3.0, -1.0]]), requires_grad=True,
                  op="param")
    labels = ["p", "p", "n"]

    def f(t):
        rows = [ad.slice_rows(t, j, j + 1) for j in range(3)]
        return loss_ccl(rows, labels)

    assert ad.finite_diff_check(f, x) < 1e-4


# ---------------------------------------------------------------------------
# centroids and pseudo labels


def test_build_centroids_exact_means():
    items = [
        (TaskType.ERC, "joy", np.array([1.0, 3.0])),
        (TaskType.ERC, "joy", np.array([3.0, 5.0])),
        (TaskType.ERC, "anger", np.array([-2.0, 0.0])),
        (TaskType.CA, "positive", np.array([7.0, 7.0])),
    ]
    index = build_centroids(items)
    assert index.tasks() == (TaskType.ERC, TaskType.CA)  # canonical task order
    assert index.labels(TaskType.ERC) == ("anger", "joy")  # lexicographic
    np.testing.assert_array_equal(np.stack([c for _, c in index.by_task[TaskType.ERC]]),
                                  np.array([[-2.0, 0.0], [2.0, 4.0]]))
    assert TaskType.MSA not in index
    with pytest.raises(ContractError):
        build_centroids([])


def test_nearest_centroid_tie_breaks_lexicographically():
    index = build_centroids([
        (TaskType.CA, "beta", np.array([1.0, 0.0])),
        (TaskType.CA, "alpha", np.array([-1.0, 0.0])),
        (TaskType.ERC, "anger", np.zeros(2)),
    ])
    got = assign_pseudo_labels(np.array([[0.0, 0.0], [0.9, 0.0]]), index,
                               [TaskType.ERC, TaskType.ERC], ["anger", "anger"])
    assert [pseudo.label_for(TaskType.CA) for pseudo in got] == ["alpha", "beta"]


def test_assign_pseudo_labels_matches_brute_force():
    rng = np.random.default_rng(11)
    tasks = TASK_ORDER[:3]
    mixed = 0
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        items = []
        for task in tasks:
            for k in range(int(rng.integers(2, 4))):
                items.append((task, f"l{k}", rng.normal(size=dim)))
        index = build_centroids(items)
        n = int(rng.integers(1, 6))
        vectors = rng.normal(size=(n, dim))
        own = [tasks[int(rng.integers(len(tasks)))] for _ in range(n)]
        mixed += len(set(own)) > 1
        got = assign_pseudo_labels(vectors, index, own, [f"gold{i}" for i in range(n)])
        assert len(got) == n
        for i, (v, pseudo) in enumerate(zip(vectors, got)):
            assert tuple(pseudo.labels) == index.tasks()
            assert pseudo.label_for(own[i]) == f"gold{i}"
            for task in index.tasks():
                if task is own[i]:
                    continue
                labs = index.labels(task)
                d2 = [float(np.sum((c - v) ** 2)) for _, c in index.by_task[task]]
                best = min(range(len(labs)), key=lambda k: (d2[k], labs[k]))
                assert pseudo.label_for(task) == labs[best]
    assert mixed > 0


def test_assign_pseudo_labels_requires_own_task():
    index = build_centroids([(TaskType.CA, "x", np.zeros(2))])
    with pytest.raises(ContractError):
        assign_pseudo_labels(np.zeros((2, 2)), index, [TaskType.CA, TaskType.ERC], ["x", "anger"])
    with pytest.raises(ContractError):
        assign_pseudo_labels(np.zeros((2, 2)), index, [TaskType.CA], ["x"])


def test_label_token_id_uses_last_piece(rig):
    vocab = rig["vocab"]
    assert label_token_id("positive", vocab) == vocab.id_of("positive")
    # character-fallback labels share their final letter piece
    assert label_token_id("cat", vocab) == label_token_id("bobcat", vocab)
    with pytest.raises(VocabularyError):
        label_token_id("", vocab)


# ---------------------------------------------------------------------------
# cross-task prediction


def test_cep_uniform_model_sums_label_set_logs(rig):
    vocab, config = rig["vocab"], rig["config"]
    sizes = (4, 7, 3, 2)
    index, labels = four_task_index(vocab, sizes, dim=config.model_dim)
    pseudo = PseudoLabelSet(labels={t: labels[t][0] for t in TASK_ORDER})
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy"), pseudo),
             (rig["prompts"]["meld-toy"], plan_for(rig, "meld-toy", p=0.5), pseudo)]
    loss = loss_cep(batch, rig["uniform"], config, vocab, index)
    want = sum(math.log(s) for s in sizes)
    assert abs(loss.item() - want) < 1e-9


def test_cep_rejects_label_outside_index(rig):
    vocab, config = rig["vocab"], rig["config"]
    index, labels = four_task_index(vocab, dim=config.model_dim)
    bad = {t: labels[t][0] for t in TASK_ORDER}
    bad[TaskType.MSA] = "definitely-not-a-label"
    with pytest.raises(ContractError):
        loss_cep([(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy"),
                   PseudoLabelSet(labels=bad))], rig["params"], config, vocab, index)


def test_cep_rejects_colliding_representative_tokens(rig):
    vocab, config = rig["vocab"], rig["config"]
    index = build_centroids([
        (TaskType.CA, "cat", np.zeros(config.model_dim)),
        (TaskType.CA, "bobcat", np.ones(config.model_dim)),
    ])
    pseudo = PseudoLabelSet(labels={TaskType.CA: "cat"})
    with pytest.raises(VocabularyError):
        loss_cep([(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy"), pseudo)],
                 rig["params"], config, vocab, index)


# ---------------------------------------------------------------------------
# stage compositions


def test_stage1_recomposes_weighted_components(rig):
    vocab, config, params = rig["vocab"], rig["config"], rig["params"]
    batch = [
        Stage1Example(prompt=rig["prompts"]["sst-toy"], plan=plan_for(rig, "sst-toy", p=0.5),
                      polarity=Polarity.NEGATIVE),
        Stage1Example(prompt=rig["prompts"]["mosi-toy"], plan=plan_for(rig, "mosi-toy", p=0.5),
                      polarity=Polarity.POSITIVE),
    ]
    weights = (2.0, 0.5, 3.0)
    report, total = stage1_loss(batch, params, config, vocab, weights=weights)
    mcm = loss_mcm([(e.prompt, e.plan) for e in batch], params, config, vocab).item()
    spp = loss_spp([(e.prompt, e.polarity) for e in batch], params, config, vocab).item()
    encs = [encode(e.prompt, params, config, vocab) for e in batch]
    ccl = loss_ccl([e.pooled for e in encs], [e.polarity for e in batch]).item()
    assert abs(report.mcm - mcm) < 1e-12
    assert abs(report.spp - spp) < 1e-12
    assert abs(report.ccl - ccl) < 1e-12
    want = weights[0] * mcm + weights[1] * spp + weights[2] * ccl
    assert abs(report.total - want) < 1e-9
    assert abs(total.item() - report.total) < 1e-12
    assert report.cep == 0.0


def test_stage2_recomposes_weighted_components(rig):
    vocab, config, params = rig["vocab"], rig["config"], rig["params"]
    index, labels = four_task_index(vocab, dim=config.model_dim)
    pseudo = PseudoLabelSet(labels={t: labels[t][0] for t in TASK_ORDER})
    batch = [Stage2Example(prompt=rig["prompts"]["meld-toy"],
                           plan=plan_for(rig, "meld-toy", p=0.5), pseudo=pseudo)]
    weights = (1.5, 0.25)
    report, total = stage2_loss(batch, params, config, vocab, index, weights=weights)
    mcm = loss_mcm([(e.prompt, e.plan) for e in batch], params, config, vocab).item()
    cep = loss_cep([(e.prompt, e.plan, e.pseudo) for e in batch], params, config, vocab,
                   index).item()
    assert abs(report.mcm - mcm) < 1e-12
    assert abs(report.cep - cep) < 1e-12
    assert abs(report.total - (1.5 * mcm + 0.25 * cep)) < 1e-9
    assert abs(total.item() - report.total) < 1e-12
    assert report.spp == 0.0 and report.ccl == 0.0


def test_stage2_requires_centroid_index(rig):
    with pytest.raises(ContractError):
        stage2_loss([Stage2Example(prompt=rig["prompts"]["sst-toy"],
                                   plan=plan_for(rig, "sst-toy"),
                                   pseudo=PseudoLabelSet(labels={}))],
                    rig["params"], rig["config"], rig["vocab"], None)


# ---------------------------------------------------------------------------
# answer generation


def test_generation_loss_uniform_model(rig):
    vocab, config = rig["vocab"], rig["config"]
    g1 = [vocab.id_of("positive")]
    g2 = [vocab.id_of("negative"), vocab.id_of("neutral")]
    batch = [(rig["prompts"]["sst-toy"], g1), (rig["prompts"]["meld-toy"], g2)]
    loss = generation_loss(batch, rig["uniform"], config, vocab)
    want = math.log(len(vocab)) * ((len(g1) + 1) + (len(g2) + 1)) / 2.0
    assert abs(loss.item() - want) < 1e-9


def test_generation_loss_rejects_empty_gold(rig):
    with pytest.raises(ContractError):
        generation_loss([(rig["prompts"]["sst-toy"], [])], rig["params"], rig["config"],
                        rig["vocab"])


# ---------------------------------------------------------------------------
# gradients


def loss_fd(rig, make_loss, names):
    params = rig["params"]
    for name in names:
        err = ad.finite_diff_check(lambda t: make_loss(), params[name])
        assert err < 1e-4, f"{name}: {err}"


def test_mcm_gradients(rig):
    batch = [(rig["prompts"]["meld-toy"], plan_for(rig, "meld-toy", p=0.5))]
    loss_fd(rig, lambda: loss_mcm(batch, rig["params"], rig["config"], rig["vocab"]),
            ["enc0_ln1_g", "proj_acoustic_b"])


def test_spp_gradients(rig):
    batch = [(rig["prompts"]["sst-toy"], Polarity.POSITIVE)]
    loss_fd(rig, lambda: loss_spp(batch, rig["params"], rig["config"], rig["vocab"]),
            ["dec0_cross_bv", "enc0_attn_bq"])


def test_ccl_through_encoder_gradients(rig):
    records = rig["by_ds"]["sst-toy"][:3]
    ps = [build_prompt(r, rig["vocab"], rig["registry"], rig["config"].max_len)
          for r in records]
    labels = [Polarity.NEGATIVE, Polarity.NEGATIVE, Polarity.POSITIVE]

    def make():
        encs = [encode(p, rig["params"], rig["config"], rig["vocab"]) for p in ps]
        return loss_ccl([e.pooled for e in encs], labels)

    loss_fd(rig, make, ["enc0_ln2_b"])


def test_cep_gradients(rig):
    index, labels = four_task_index(rig["vocab"], dim=rig["config"].model_dim)
    pseudo = PseudoLabelSet(labels={t: labels[t][0] for t in TASK_ORDER})
    batch = [(rig["prompts"]["mosi-toy"], plan_for(rig, "mosi-toy", p=0.5), pseudo)]
    loss_fd(rig, lambda: loss_cep(batch, rig["params"], rig["config"], rig["vocab"], index),
            ["mask_vec_visual"])


def test_generation_gradients(rig):
    batch = [(rig["prompts"]["sst-toy"], [rig["vocab"].id_of("positive")])]
    loss_fd(rig, lambda: generation_loss(batch, rig["params"], rig["config"], rig["vocab"]),
            ["dec0_self_bo"])
