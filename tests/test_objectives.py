import math
import string
from dataclasses import replace

import numpy as np
import pytest

from sentigen import autodiff as ad
from sentigen.data import Polarity, TASK_ORDER, TaskType
from sentigen.errors import ContractError, VocabularyError
from sentigen.masking import apply_modal_setting, sample_mcm_plan, sample_modal_setting
from sentigen.model import decoder_states, encode, encode_batch, init_params, token_logits
from sentigen.objectives import (POLARITY_ORDER, Stage1Example, Stage2Example,
                                 assign_pseudo_labels, build_centroids, generation_loss,
                                 label_token_id, label_token_ids, loss_ccl, loss_cep, loss_mcm,
                                 loss_spp, polarity_token_ids, stage1_loss, stage2_loss)
from sentigen.prompt import build_prompt

from conftest import div, finite_diff_check, gather_cols, small_config, sqrt, sub, sum_of


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
    return sample_mcm_plan(rig_["prompts"][dataset], p, np.random.default_rng(seed))


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


def four_task_labels(vocab, sizes=(4, 7, 3, 2)):
    """A label table: per task, ``size`` distinct letters in lexicographic
    order."""
    it = iter(letters_in_vocab(vocab, sum(sizes)))
    return {task: tuple(next(it) for _ in range(size)) for task, size in zip(TASK_ORDER, sizes)}


def first_labels(batch_size):
    """(B, 4) targets: every task's first label for every sample."""
    return np.zeros((batch_size, len(TASK_ORDER)), dtype=np.int64)


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
    loss = loss_mcm(encoded(rig, batch, rig["uniform"]), batch, rig["uniform"])
    want = math.log(len(vocab)) * n / len(batch)
    assert abs(loss.item() - want) < 1e-9


def test_mcm_without_masked_positions_is_zero(rig):
    plan = plan_for(rig, "sst-toy", p=0.0)
    assert plan.masked_token_positions == ()
    batch = [(rig["prompts"]["sst-toy"], plan)]
    loss = loss_mcm(encoded(rig, batch), batch, rig["params"])
    assert loss.item() == 0.0


def test_mcm_empty_batch(rig):
    with pytest.raises(ContractError):
        loss_mcm(encoded(rig, [rig["prompts"]["sst-toy"]]), [], rig["params"])


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
        rows = [ad.embedding(t, range(j, j + 1)) for j in range(3)]
        return loss_ccl(rows, labels)

    assert finite_diff_check(f, x) < 1e-4


def test_ccl_node_gradient_matches_finite_differences():
    """The one contrastive node over one row block and over several, with a
    pair at zero distance and a sample with no same-label partner: the
    gradient passes central differences at 1e-4, the node is the only
    vertex above its rows, and its value is the per-pair reference's."""
    data = np.random.default_rng(37).normal(size=(6, 3))
    data[1] = data[0]  # rows 0 and 1: a same-label pair at zero distance
    x = ad.Tensor(data, requires_grad=True, op="param")
    labels = ["p", "p", "n", "p", "n", "q"]  # "q": no same-label partner

    def blocks(t, bounds):
        return [ad.embedding(t, range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]

    for make in (lambda t: [t], lambda t: blocks(t, [0, 2, 3, 6]),
                 lambda t: blocks(t, range(7))):
        assert finite_diff_check(lambda t: loss_ccl(make(t), labels), x) < 1e-4
    loss = loss_ccl([x], labels)
    assert loss.op == "pair_contrast" and loss.parents == (x,)
    assert abs(loss.item() - ref_ccl(blocks(x, range(7)), labels).item()) <= 1e-12


# ---------------------------------------------------------------------------
# centroids and pseudo labels


def test_build_centroids_exact_means():
    # task column 0 with labels (anger, joy), column 1 with (positive,)
    vectors = np.array([[1.0, 3.0], [3.0, 5.0], [-2.0, 0.0], [7.0, 7.0]])
    centroids = build_centroids(vectors, [0, 0, 0, 1], [1, 1, 0, 0])
    assert len(centroids) == 2
    np.testing.assert_array_equal(centroids[0], [[-2.0, 0.0], [2.0, 4.0]])
    np.testing.assert_array_equal(centroids[1], [[7.0, 7.0]])
    with pytest.raises(ContractError):
        build_centroids(np.zeros((0, 2)), [], [])
    with pytest.raises(ContractError):
        build_centroids(vectors, [0, 0, 0], [1, 1, 0])
    with pytest.raises(ContractError):  # label 0 of column 0 holds no row
        build_centroids(vectors, [0, 0, 0, 1], [1, 1, 1, 0])
    with pytest.raises(ContractError):  # column 1 holds no row
        build_centroids(vectors, [0, 0, 0, 2], [1, 1, 0, 0])


def test_nearest_centroid_tie_breaks_lexicographically():
    # column 0: (anger,); column 1: (alpha, beta), sorted, so a tie goes to alpha
    centroids = build_centroids(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
                                [0, 1, 1], [0, 1, 0])
    got = assign_pseudo_labels(np.array([[0.0, 0.0], [0.9, 0.0]]), centroids, [0, 0], [0, 0])
    assert got.tolist() == [[0, 0], [0, 1]]


def test_assign_pseudo_labels_matches_brute_force():
    rng = np.random.default_rng(11)
    tasks = 3
    mixed = 0
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        own_rows, gold_rows = [], []
        for t in range(tasks):
            for k in range(int(rng.integers(2, 4))):
                own_rows.append(t)
                gold_rows.append(k)
        snapshot = rng.normal(size=(len(own_rows), dim))
        centroids = build_centroids(snapshot, own_rows, gold_rows)
        n = int(rng.integers(1, 6))
        vectors = rng.normal(size=(n, dim))
        own = rng.integers(tasks, size=n)
        gold = [int(rng.integers(len(centroids[t]))) for t in own]
        mixed += len(set(own.tolist())) > 1
        got = assign_pseudo_labels(vectors, centroids, own, gold)
        assert got.shape == (n, tasks) and got.dtype == np.int64
        for i, v in enumerate(vectors):
            assert got[i, own[i]] == gold[i]
            for t in range(tasks):
                if t == own[i]:
                    continue
                d2 = [float(np.sum((c - v) ** 2)) for c in centroids[t]]
                best = min(range(len(d2)), key=lambda k: (d2[k], k))
                assert got[i, t] == best
    assert mixed > 0


def test_assign_pseudo_labels_requires_own_task():
    centroids = build_centroids(np.zeros((1, 2)), [0], [0])
    with pytest.raises(ContractError):  # no centroids for task column 1
        assign_pseudo_labels(np.zeros((2, 2)), centroids, [0, 1], [0, 0])
    with pytest.raises(ContractError):
        assign_pseudo_labels(np.zeros((2, 2)), centroids, [0], [0])


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
    label_ids = label_token_ids(four_task_labels(vocab, sizes), vocab)
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy")),
             (rig["prompts"]["meld-toy"], plan_for(rig, "meld-toy", p=0.5))]
    loss = loss_cep(encoded(rig, batch, rig["uniform"]), [[0, 6, 2, 1], [3, 0, 0, 0]],
                    rig["uniform"], config, vocab, label_ids)
    want = sum(math.log(s) for s in sizes)
    assert abs(loss.item() - want) < 1e-9


def test_cep_rejects_label_outside_index(rig):
    """A target that is no index of its task's table, or targets that do not
    give one per task per sample, are ContractErrors."""
    vocab, config = rig["vocab"], rig["config"]
    label_ids = label_token_ids(four_task_labels(vocab), vocab)
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy"))]
    for bad in ([[0, 7, 0, 0]], [[0, 0, -1, 0]], [[0, 0, 0]], [0, 0, 0, 0], [[0] * 4] * 2):
        with pytest.raises(ContractError):
            loss_cep(encoded(rig, batch), bad, rig["params"], config, vocab, label_ids)


def test_cep_rejects_colliding_representative_tokens(rig):
    """The label table's representative tokens are checked when the table is
    built, once per run: two labels of one task sharing a final piece are a
    VocabularyError."""
    vocab = rig["vocab"]
    with pytest.raises(VocabularyError):
        label_token_ids({TaskType.CA: ("bobcat", "cat")}, vocab)
    got = label_token_ids({TaskType.ABSA: ("bobcat",), TaskType.CA: ("cat",)}, vocab)
    assert got[TaskType.CA] == got[TaskType.ABSA] == [label_token_id("cat", vocab)]


def test_cep_head_nodes_do_not_grow_with_tasks(rig):
    """One cross-entropy over the tasks' label tokens side by side: the
    graph of ``loss_cep`` above its encoding has as many vertices for 1, 2
    and 4 tasks."""
    vocab, config, params = rig["vocab"], rig["config"], rig["params"]
    full = label_token_ids(four_task_labels(vocab), vocab)
    batch = [(rig["prompts"]["sst-toy"], plan_for(rig, "sst-toy")),
             (rig["prompts"]["meld-toy"], plan_for(rig, "meld-toy", p=0.5))]
    counts = []
    for n in (1, 2, 4):
        enc = encoded(rig, batch)
        below = {id(v) for v in ad._topological_order(enc.states)}
        loss = loss_cep(enc, np.zeros((2, n), dtype=np.int64), params, config, vocab,
                        dict(list(full.items())[:n]))
        counts.append(sum(id(v) not in below for v in ad._topological_order(loss)))
    assert counts[0] == counts[1] == counts[2]


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
    mcm = loss_mcm(encoded(rig, pairs), pairs, params).item()
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
    label_ids = label_token_ids(four_task_labels(vocab), vocab)
    batch = [Stage2Example(prompt=rig["prompts"]["meld-toy"],
                           plan=plan_for(rig, "meld-toy", p=0.5), pseudo=np.array([1, 4, 2, 0]))]
    weights = (1.5, 0.25)
    report, total = stage2_loss(batch, params, config, vocab, label_ids, weights=weights)
    pairs = [(e.prompt, e.plan) for e in batch]
    mcm = loss_mcm(encoded(rig, pairs), pairs, params).item()
    cep = loss_cep(encoded(rig, pairs), [e.pseudo for e in batch], params, config, vocab,
                   label_ids).item()
    assert abs(report.mcm - mcm) < 1e-12
    assert abs(report.cep - cep) < 1e-12
    assert abs(report.total - (1.5 * mcm + 0.25 * cep)) < 1e-9
    assert abs(total.item() - report.total) < 1e-12
    assert report.spp == 0.0 and report.ccl == 0.0


def test_loss_graphs_keep_their_fused_nodes(rig):
    """Structural guard over a training stage-one, stage-two and fine-tune
    loss graph, dropout on: no add node sums a matmul and a bias, and no add
    node feeds a ``layer_norm``, whose residual sum happens inside it. The
    one add over a matmul is the decoder input: token rows plus position
    rows, which no bias can stand for."""
    vocab = rig["vocab"]
    config = replace(rig["config"], layers_enc=2, layers_dec=2, dropout_rate=0.1)
    params = init_params(config, np.random.default_rng(11))
    rng = np.random.default_rng(0)
    prompts = list(rig["prompts"].values())
    plans = [sample_mcm_plan(ps, 0.5, rng) for ps in prompts]
    label_ids = label_token_ids(four_task_labels(vocab), vocab)
    stage1 = [Stage1Example(prompt=ps, plan=plan, polarity=POLARITY_ORDER[i % 3])
              for i, (ps, plan) in enumerate(zip(prompts, plans))]
    stage2 = [Stage2Example(prompt=ps, plan=plan, pseudo=target)
              for ps, plan, target in zip(prompts, plans, first_labels(len(prompts)))]
    losses = {"stage1": stage1_loss(stage1, params, config, vocab, train=True, rng=rng)[1],
              "stage2": stage2_loss(stage2, params, config, vocab, label_ids, train=True,
                                    rng=rng)[1],
              "finetune": generation_loss([(ps, [4, 5]) for ps in prompts], params, config, vocab,
                                          train=True, rng=rng)}
    for name, loss in losses.items():
        nodes = ad._topological_order(loss)
        assert {"linear", "layer_norm", "dropout"} <= {n.op for n in nodes}, name
        for node in nodes:
            parents = sorted(p.op for p in node.parents)
            if node.op == "add" and "matmul" in parents:
                assert parents == ["embedding", "matmul"], name
            if node.op == "layer_norm":
                assert "add" not in parents and len(parents) == 4, name


def test_stage2_requires_centroid_index(rig):
    example = Stage2Example(prompt=rig["prompts"]["sst-toy"], plan=plan_for(rig, "sst-toy"),
                            pseudo=np.zeros(0, dtype=np.int64))
    for empty in (None, {}):
        with pytest.raises(ContractError):
            stage2_loss([example], rig["params"], rig["config"], rig["vocab"], empty)


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
        err = finite_diff_check(lambda t: make_loss(), params[name])
        assert err < 1e-4, f"{name}: {err}"


def test_mcm_gradients(rig):
    batch = [(rig["prompts"]["meld-toy"], plan_for(rig, "meld-toy", p=0.5))]
    loss_fd(rig, lambda: loss_mcm(encoded(rig, batch), batch, rig["params"]),
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
    label_ids = label_token_ids(four_task_labels(rig["vocab"]), rig["vocab"])
    batch = [(rig["prompts"]["mosi-toy"], plan_for(rig, "mosi-toy", p=0.5))]
    loss_fd(rig, lambda: loss_cep(encoded(rig, batch), first_labels(1), rig["params"],
                                  rig["config"], rig["vocab"], label_ids),
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
            original = list(ps.ids)
            ce = ad.softmax_cross_entropy(token_logits(ad.embedding(enc.states, pos), params),
                                          [original[p] for p in pos])
            total = ad.add(total, ad.scale(ce, len(pos)))
    return ad.scale(total, 1.0 / len(batch))


def ref_spp(batch, params, config, vocab):
    total = ad.constant(0.0)
    for ps, pol in batch:
        h = decoder_states([vocab.bos_id], encode(ps, params, config, vocab), params, config)
        logits = gather_cols(token_logits(h, params), list(polarity_token_ids(vocab)))
        total = ad.add(total, ad.softmax_cross_entropy(logits, [POLARITY_ORDER.index(pol)]))
    return ad.scale(total, 1.0 / len(batch))


def ref_ccl(pooled, labels):
    """The O(B^2) scalar-node form: one distance node per live pair."""
    dist = {}
    for j in range(len(pooled)):
        for k in range(j + 1, len(pooled)):
            diff = sub(pooled[j], pooled[k])
            sq = sum_of(diff, diff)
            if sq.item() > 0.0:
                dist[j, k] = dist[k, j] = sqrt(sq)
    total = ad.constant(0.0)
    for j in range(len(pooled)):
        mass = [(dist[j, k], labels[j] == labels[k]) for k in range(len(pooled)) if (j, k) in dist]
        if any(same for _, same in mass):
            numer, denom = ad.constant(0.0), ad.constant(0.0)
            for d, same in mass:
                denom = ad.add(denom, d)
                numer = ad.add(numer, d) if same else numer
            total = ad.add(total, div(numer, denom))
    return total


def ref_cep(batch, params, config, vocab, table):
    """Per sample and task, from the label table itself: ``pseudo`` maps
    each task to its label, a string."""
    tasks = [t for t in TASK_ORDER if t in table]
    total = ad.constant(0.0)
    for ps, plan, pseudo in batch:
        enc = encode(ps, params, config, vocab, mask_plan=plan)
        h = decoder_states([vocab.task_id(t) for t in tasks], enc, params, config)
        logits = token_logits(h, params)
        for i, task in enumerate(tasks):
            labels = table[task]
            row = gather_cols(ad.embedding(logits, range(i, i + 1)),
                              [label_token_id(lab, vocab) for lab in labels])
            total = ad.add(total, ad.softmax_cross_entropy(row, [labels.index(pseudo[task])]))
    return ad.scale(total, 1.0 / len(batch))


def ref_generation(batch, params, config, vocab):
    total = ad.constant(0.0)
    for ps, gold in batch:
        h = decoder_states([vocab.bos_id] + gold, encode(ps, params, config, vocab), params, config)
        ce = ad.softmax_cross_entropy(token_logits(h, params), gold + [vocab.eos_id])
        total = ad.add(total, ad.scale(ce, len(gold) + 1))
    return ad.scale(total, 1.0 / len(batch))


def value_and_grads(make_loss, params):
    loss = make_loss()
    grads = ad.backward(loss) if loss.requires_grad else {}
    return loss.item(), {n: grads[t] if t in grads else np.zeros_like(t.data)
                         for n, t in params.items()}


def test_batched_losses_match_per_sample_reference(rig):
    """With dropout off, every loss on one padded-batch encoding gives the
    value and parameter gradients of the per-sample losses, over mixed tasks,
    modal settings, mask rates 0 / 0.3 / 1, golds of different lengths
    (some ending early in <eos>), repeated prompts and batches of one."""
    vocab, config, params = rig["vocab"], rig["config"], rig["params"]
    records = [r for rs in rig["by_ds"].values() for r in rs]
    labmap = four_task_labels(vocab)
    label_ids = label_token_ids(labmap, vocab)
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
        plans = [sample_mcm_plan(ps, rate, rng) for ps in prompts]
        pols = [POLARITY_ORDER[int(rng.integers(3))] for _ in prompts]
        targets = np.array([[int(rng.integers(len(labmap[t]))) for t in TASK_ORDER]
                            for _ in prompts])
        pseudos = [{t: labmap[t][k] for t, k in zip(TASK_ORDER, row)} for row in targets]
        golds = [[int(t) for t in rng.integers(4, len(vocab), size=int(rng.integers(1, 5)))]
                 for _ in prompts]
        golds[0][-1] = vocab.eos_id
        seen_tasks.update(r.task_type for r in chosen)
        seen_lengths.add(tuple(len(g) for g in golds))
        s1 = [Stage1Example(prompt=ps, plan=pl, polarity=po)
              for ps, pl, po in zip(prompts, plans, pols)]
        s2 = [Stage2Example(prompt=ps, plan=pl, pseudo=row)
              for ps, pl, row in zip(prompts, plans, targets)]
        masked = list(zip(prompts, plans))

        def ref_stage1():
            pooled = [encode(ps, params, config, vocab).pooled for ps in prompts]
            return ad.add(ad.add(ref_mcm(masked, params, config, vocab),
                                 ref_spp(list(zip(prompts, pols)), params, config, vocab)),
                          ref_ccl(pooled, pols))

        pairs = {
            "mcm": (lambda: loss_mcm(encode_batch(prompts, params, config, vocab, mask_plans=plans),
                                     masked, params),
                    lambda: ref_mcm(masked, params, config, vocab)),
            "spp": (lambda: loss_spp(encode_batch(prompts, params, config, vocab), pols,
                                     params, config, vocab),
                    lambda: ref_spp(list(zip(prompts, pols)), params, config, vocab)),
            "cep": (lambda: loss_cep(encode_batch(prompts, params, config, vocab, mask_plans=plans),
                                     targets, params, config, vocab, label_ids),
                    lambda: ref_cep(list(zip(prompts, plans, pseudos)), params, config, vocab,
                                    labmap)),
            "stage1": (lambda: stage1_loss(s1, params, config, vocab)[1], ref_stage1),
            "stage2": (lambda: stage2_loss(s2, params, config, vocab, label_ids)[1],
                       lambda: ad.add(ref_mcm(masked, params, config, vocab),
                                      ref_cep(list(zip(prompts, plans, pseudos)), params, config,
                                              vocab, labmap))),
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
    rows = [ad.embedding(x, range(j, j + 1)) for j in range(64)]
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
    # row blocks of any size, or single (d,) rows, stack to the same batch
    for blocks in ([x], [ad.embedding(x, range(40)), ad.reshape(rows[40], (16,)),
                   ad.embedding(x, range(41, 64))]):
        again = loss_ccl(blocks, [Polarity.POSITIVE, Polarity.NEGATIVE] * 32)
        assert abs(again.item() - loss.item()) <= 1e-12
