import math
import string

import numpy as np
import pytest

from sentigen import autodiff as ad
from sentigen.data import Polarity, TASK_ORDER, TaskType
from sentigen.errors import ContractError, VocabularyError
from sentigen.masking import apply_modal_setting, sample_mcm_plan, sample_modal_setting
from sentigen.model import decoder_states, encode, encode_batch, init_params, token_logits
from sentigen.objectives import (POLARITY_ORDER, CentroidIndex, PseudoLabelSet, Stage1Example,
                                 Stage2Example, assign_pseudo_labels, build_centroids,
                                 generation_loss, label_token_id, loss_ccl, loss_cep, loss_mcm,
                                 loss_spp, polarity_token_ids, stage1_loss, stage2_loss)
from sentigen.prompt import build_prompt, flatten_prompt

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


def encoded(rig_, batch, params=None):
    """The padded-batch encoding of ``batch``'s prompts, each corrupted by
    its plan when entries are (prompt, plan, ...) and clean when they are
    bare prompts."""
    params = rig_["params"] if params is None else params
    if batch and isinstance(batch[0], tuple):
        return encode_batch([e[0] for e in batch], params, rig_["config"], rig_["vocab"],
                            mask_plans=[e[1] for e in batch])
    return encode_batch(batch, params, rig_["config"], rig_["vocab"])


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
    loss = loss_mcm(encoded(rig, batch, rig["uniform"]), batch, rig["uniform"], vocab)
    want = math.log(len(vocab)) * n / len(batch)
    assert abs(loss.item() - want) < 1e-9


def test_mcm_without_masked_positions_is_zero(rig):
    plan = plan_for(rig, "sst-toy", p=0.0)
    assert plan.masked_token_positions == ()
    batch = [(rig["prompts"]["sst-toy"], plan)]
    loss = loss_mcm(encoded(rig, batch), batch, rig["params"], rig["vocab"])
    assert loss.item() == 0.0


def test_mcm_empty_batch(rig):
    with pytest.raises(ContractError):
        loss_mcm(encoded(rig, [rig["prompts"]["sst-toy"]]), [], rig["params"], rig["vocab"])


# ---------------------------------------------------------------------------
# polarity prediction


def test_spp_uniform_model_gives_log3(rig):
    batch = [(rig["prompts"]["sst-toy"], Polarity.NEGATIVE),
             (rig["prompts"]["mosi-toy"], Polarity.POSITIVE)]
    loss = loss_spp(encoded(rig, [ps for ps, _ in batch], rig["uniform"]),
                    [pol for _, pol in batch], rig["uniform"], rig["config"], rig["vocab"])
    assert abs(loss.item() - math.log(3)) < 1e-9


def test_spp_trained_params_finite(rig):
    loss = loss_spp(encoded(rig, [rig["prompts"]["sst-toy"]]), [Polarity.NEUTRAL], rig["params"],
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
    loss = loss_cep(encoded(rig, batch, rig["uniform"]), [e[2] for e in batch], rig["uniform"],
                    config, vocab, index)
    want = sum(math.log(s) for s in sizes)
    assert abs(loss.item() - want) < 1e-9


def test_cep_rejects_label_outside_index(rig):
    vocab, config = rig["vocab"], rig["config"]
    index, labels = four_task_index(vocab, dim=config.model_dim)
    bad = {t: labels[t][0] for t in TASK_ORDER}
    bad[TaskType.MSA] = "definitely-not-a-label"
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy"))]
    with pytest.raises(ContractError):
        loss_cep(encoded(rig, batch), [PseudoLabelSet(labels=bad)], rig["params"], config, vocab,
                 index)


def test_cep_rejects_colliding_representative_tokens(rig):
    vocab, config = rig["vocab"], rig["config"]
    index = build_centroids([
        (TaskType.CA, "cat", np.zeros(config.model_dim)),
        (TaskType.CA, "bobcat", np.ones(config.model_dim)),
    ])
    pseudo = PseudoLabelSet(labels={TaskType.CA: "cat"})
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy"))]
    with pytest.raises(VocabularyError):
        loss_cep(encoded(rig, batch), [pseudo], rig["params"], config, vocab, index)


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
    pairs = [(e.prompt, e.plan) for e in batch]
    mcm = loss_mcm(encoded(rig, pairs), pairs, params, vocab).item()
    spp = loss_spp(encoded(rig, [e.prompt for e in batch]), [e.polarity for e in batch],
                   params, config, vocab).item()
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
    pairs = [(e.prompt, e.plan) for e in batch]
    mcm = loss_mcm(encoded(rig, pairs), pairs, params, vocab).item()
    cep = loss_cep(encoded(rig, pairs), [e.pseudo for e in batch], params, config, vocab,
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
    loss_fd(rig, lambda: loss_mcm(encoded(rig, batch), batch, rig["params"], rig["vocab"]),
            ["enc0_ln1_g", "proj_acoustic_b"])


def test_spp_gradients(rig):
    prompts = [rig["prompts"]["sst-toy"]]
    loss_fd(rig, lambda: loss_spp(encoded(rig, prompts), [Polarity.POSITIVE], rig["params"],
                                  rig["config"], rig["vocab"]),
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
    batch = [(rig["prompts"]["mosi-toy"], plan_for(rig, "mosi-toy", p=0.5))]
    loss_fd(rig, lambda: loss_cep(encoded(rig, batch), [pseudo], rig["params"], rig["config"],
                                  rig["vocab"], index),
            ["mask_vec_visual"])


def test_generation_gradients(rig):
    batch = [(rig["prompts"]["sst-toy"], [rig["vocab"].id_of("positive")])]
    loss_fd(rig, lambda: generation_loss(batch, rig["params"], rig["config"], rig["vocab"]),
            ["dec0_self_bo"])


# ---------------------------------------------------------------------------
# batched losses against a per-sample reference


def ref_mcm(batch, params, config, vocab):
    total = ad.constant(0.0)
    for ps, plan in batch:
        pos = list(plan.masked_token_positions)
        if pos:
            enc = encode(ps, params, config, vocab, mask_plan=plan)
            original = flatten_prompt(ps, vocab)
            ce = ad.softmax_cross_entropy(token_logits(ad.embedding(enc.states, pos), params),
                                          [original[p] for p in pos])
            total = ad.add(total, ad.scale(ce, len(pos)))
    return ad.scale(total, 1.0 / len(batch))


def ref_spp(batch, params, config, vocab):
    total = ad.constant(0.0)
    for ps, pol in batch:
        h = decoder_states([vocab.bos_id], encode(ps, params, config, vocab), params, config)
        logits = ad.gather_cols(token_logits(h, params), list(polarity_token_ids(vocab)))
        total = ad.add(total, ad.softmax_cross_entropy(logits, [POLARITY_ORDER.index(pol)]))
    return ad.scale(total, 1.0 / len(batch))


def ref_ccl(pooled, labels):
    """The O(B^2) scalar-node form: one distance node per live pair."""
    dist = {}
    for j in range(len(pooled)):
        for k in range(j + 1, len(pooled)):
            diff = ad.sub(pooled[j], pooled[k])
            sq = ad.sum_all(ad.mul(diff, diff))
            if sq.item() > 0.0:
                dist[j, k] = dist[k, j] = ad.sqrt(sq)
    total = ad.constant(0.0)
    for j in range(len(pooled)):
        mass = [(dist[j, k], labels[j] == labels[k]) for k in range(len(pooled)) if (j, k) in dist]
        if any(same for _, same in mass):
            numer, denom = ad.constant(0.0), ad.constant(0.0)
            for d, same in mass:
                denom = ad.add(denom, d)
                numer = ad.add(numer, d) if same else numer
            total = ad.add(total, ad.div(numer, denom))
    return total


def ref_cep(batch, params, config, vocab, index):
    tasks = index.tasks()
    total = ad.constant(0.0)
    for ps, plan, pseudo in batch:
        enc = encode(ps, params, config, vocab, mask_plan=plan)
        h = decoder_states([vocab.task_id(t) for t in tasks], enc, params, config)
        logits = token_logits(h, params)
        for i, task in enumerate(tasks):
            labels = index.labels(task)
            row = ad.gather_cols(ad.slice_rows(logits, i, i + 1),
                                 [label_token_id(lab, vocab) for lab in labels])
            total = ad.add(total, ad.softmax_cross_entropy(
                row, [labels.index(pseudo.label_for(task))]))
    return ad.scale(total, 1.0 / len(batch))


def ref_generation(batch, params, config, vocab):
    total = ad.constant(0.0)
    for ps, gold in batch:
        h = decoder_states([vocab.bos_id] + gold, encode(ps, params, config, vocab), params, config)
        ce = ad.softmax_cross_entropy(token_logits(h, params), gold + [vocab.eos_id])
        total = ad.add(total, ad.scale(ce, len(gold) + 1))
    return ad.scale(total, 1.0 / len(batch))


def value_and_grads(make_loss, params):
    ad.zero_grads(params.values())
    loss = make_loss()
    if loss.requires_grad:
        ad.backward(loss)
    return loss.item(), {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                         for n, t in params.items()}


def test_batched_losses_match_per_sample_reference(rig):
    """With dropout off, every loss on one padded-batch encoding gives the
    value and parameter gradients of the per-sample losses, over mixed tasks,
    modal settings, mask rates 0 / 0.3 / 1, golds of different lengths
    (some ending early in <eos>), repeated prompts and batches of one."""
    vocab, config, params = rig["vocab"], rig["config"], rig["params"]
    records = [r for rs in rig["by_ds"].values() for r in rs]
    index, labmap = four_task_index(vocab, dim=config.model_dim)
    rng = np.random.default_rng(2024)
    seen_tasks, seen_lengths = set(), set()
    for trial in range(12):
        size = 1 if trial % 4 == 0 else int(rng.integers(2, 6))
        chosen = [records[int(i)] for i in rng.choice(len(records), size=size, replace=False)]
        prompts = [build_prompt(r, vocab, rig["registry"], config.max_len) for r in chosen]
        prompts = [apply_modal_setting(ps, sample_modal_setting(ps, rng)) for ps in prompts]
        if trial % 4 == 1:
            prompts[1] = prompts[0]  # a zero-distance pair for the contrastive term
        rate = (0.0, 0.3, 1.0)[trial % 3]
        plans = [sample_mcm_plan(ps, rate, rng, vocab) for ps in prompts]
        pols = [POLARITY_ORDER[int(rng.integers(3))] for _ in prompts]
        pseudos = [PseudoLabelSet(labels={t: labmap[t][int(rng.integers(len(labmap[t])))]
                                          for t in TASK_ORDER}) for _ in prompts]
        golds = [[int(t) for t in rng.integers(4, len(vocab), size=int(rng.integers(1, 5)))]
                 for _ in prompts]
        golds[0][-1] = vocab.eos_id
        seen_tasks.update(r.task_type for r in chosen)
        seen_lengths.add(tuple(len(g) for g in golds))
        s1 = [Stage1Example(prompt=ps, plan=pl, polarity=po)
              for ps, pl, po in zip(prompts, plans, pols)]
        s2 = [Stage2Example(prompt=ps, plan=pl, pseudo=pd)
              for ps, pl, pd in zip(prompts, plans, pseudos)]
        masked = list(zip(prompts, plans))

        def ref_stage1():
            pooled = [encode(ps, params, config, vocab).pooled for ps in prompts]
            return ad.add(ad.add(ref_mcm(masked, params, config, vocab),
                                 ref_spp(list(zip(prompts, pols)), params, config, vocab)),
                          ref_ccl(pooled, pols))

        pairs = {
            "mcm": (lambda: loss_mcm(encode_batch(prompts, params, config, vocab, mask_plans=plans),
                                     masked, params, vocab),
                    lambda: ref_mcm(masked, params, config, vocab)),
            "spp": (lambda: loss_spp(encode_batch(prompts, params, config, vocab), pols,
                                     params, config, vocab),
                    lambda: ref_spp(list(zip(prompts, pols)), params, config, vocab)),
            "cep": (lambda: loss_cep(encode_batch(prompts, params, config, vocab, mask_plans=plans),
                                     pseudos, params, config, vocab, index),
                    lambda: ref_cep(list(zip(prompts, plans, pseudos)), params, config, vocab,
                                    index)),
            "stage1": (lambda: stage1_loss(s1, params, config, vocab)[1], ref_stage1),
            "stage2": (lambda: stage2_loss(s2, params, config, vocab, index)[1],
                       lambda: ad.add(ref_mcm(masked, params, config, vocab),
                                      ref_cep(list(zip(prompts, plans, pseudos)), params, config,
                                              vocab, index))),
            "generation": (lambda: generation_loss(list(zip(prompts, golds)), params, config, vocab),
                           lambda: ref_generation(list(zip(prompts, golds)), params, config,
                                                  vocab)),
        }
        for name, (batched, reference) in pairs.items():
            got, got_grads = value_and_grads(batched, params)
            want, want_grads = value_and_grads(reference, params)
            assert abs(got - want) <= 1e-10, f"{name} at trial {trial}: {got} vs {want}"
            for p in params:
                err = np.max(np.abs(got_grads[p] - want_grads[p]))
                assert err <= 1e-10, f"{name} gradient of {p} at trial {trial}: {err}"
    assert len(seen_tasks) == len(TASK_ORDER)
    assert any(len(set(lengths)) > 1 for lengths in seen_lengths)


def test_ccl_graph_is_a_few_matrix_ops():
    x = ad.Tensor(np.random.default_rng(0).normal(size=(64, 16)), requires_grad=True, op="param")
    rows = [ad.slice_rows(x, j, j + 1) for j in range(64)]
    loss = loss_ccl(rows, [Polarity.POSITIVE, Polarity.NEGATIVE] * 32)
    seen, stack = {id(r) for r in rows}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    assert len(seen) - len(rows) < 200
    assert abs(loss.item() - ref_ccl(rows, [Polarity.POSITIVE, Polarity.NEGATIVE] * 32).item()) \
        <= 1e-10
