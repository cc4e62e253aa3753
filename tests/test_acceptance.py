"""Acceptance gate: ten checks covering the exactly reproducible published
computation plus property/oracle invariants of every subsystem. Each check
prints one pass/fail line (echoed in the terminal summary)."""
import json
import math
import string
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from sentigen import autodiff as ad
from sentigen.bias import bias_report, cross_annotate, fixture_accuracy_matrix, label_centroids
from sentigen.cli import make_synthetic_corpus
from sentigen.data import (Polarity, Registry, SaevalRecord, TASK_ORDER, TaskType, load_corpus,
                           serialize_corpus)
from sentigen.evaluation import (bin_scalar, decode_accuracy, metric_mf1_excl_neutral,
                                 metric_wa, metric_wf1, metrics_msa)
from sentigen.masking import ModalitySetting, sample_mcm_plan, sample_modal_setting
from sentigen.model import (ModelConfig, encode, encode_batch, init_params, load_checkpoint,
                            params_from_arrays, save_checkpoint)
from sentigen.objectives import (Stage1Example, Stage2Example, assign_pseudo_labels,
                                 build_centroids, generation_loss, label_token_ids, loss_ccl,
                                 loss_cep, loss_mcm, loss_spp, stage1_loss, stage2_loss)
from sentigen.prompt import Vocab, build_prompt, build_vocab, combine_queries, resegment_prompt
from sentigen.training import (TrainConfig, gold_token_ids, run_finetune, run_pretrain_stage1,
                               task_average_sample, task_pools)

from conftest import finite_diff_check

CRITERION_LINES = []


@contextmanager
def criterion(num, name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        line = f"criterion {num:2d} {name}: FAIL"
        CRITERION_LINES.append(line)
        print(line, flush=True)
        raise
    line = f"criterion {num:2d} {name}: PASS ({time.monotonic() - t0:.1f}s)"
    CRITERION_LINES.append(line)
    print(line, flush=True)


@pytest.fixture(scope="module")
def acc(tmp_path_factory):
    """16-sample synthetic corpus plus a small model rig shared by the
    criteria that need real prompts."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus_path, registry_path = make_synthetic_corpus(root / "corpus", seed=0, per_task=4)
    registry = Registry.from_json(json.loads(registry_path.read_text()))
    records = load_corpus(corpus_path, registry)
    assert len(records) == 16
    vocab = build_vocab(records, registry, num_speakers=8)
    config = ModelConfig(model_dim=16, text_embed_dim=16, acoustic_dim=8, visual_dim=4,
                         layers_enc=1, layers_dec=1, heads=2, ffn_dim=32, max_len=96,
                         vocab_size=len(vocab), num_datasets=len(registry), dropout_rate=0.0)
    params = init_params(config, np.random.default_rng(0))
    prompts = {r.dataset_id: build_prompt(r, vocab, registry, config.max_len) for r in records}
    return {"root": root, "corpus_path": corpus_path, "registry": registry,
            "records": records, "vocab": vocab, "config": config, "params": params,
            "prompts": prompts}


# ---------------------------------------------------------------------------
# 1. bias arithmetic


def test_c01_bias_arithmetic_exact():
    with criterion(1, "bias arithmetic"):
        t0 = time.monotonic()
        matrix = fixture_accuracy_matrix()
        report = bias_report(matrix)
        idx = {name: matrix.index(name) for name in ("iemocap", "meld", "emorynlp", "mosi")}
        published = [
            ("iemocap", "meld", 20.01),
            ("iemocap", "emorynlp", 43.58),
            ("iemocap", "mosi", 23.57),
            ("meld", "emorynlp", 19.10),
            ("meld", "mosi", 10.47),
            ("emorynlp", "mosi", 8.93),
        ]
        for a, b, want in published:
            got = report.sub[idx[a]][idx[b]]
            assert abs(got - want) <= 0.01, (a, b, got, want)
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. gradient fidelity


def letters(vocab, n):
    got = [c for c in string.ascii_lowercase if c in vocab]
    assert len(got) >= n
    return got[:n]


def random_labels(acc_rig, rng):
    """A label table for ``loss_cep``: 2-4 distinct letters per task, in
    lexicographic order."""
    pool = iter(letters(acc_rig["vocab"], 16))
    return {task: tuple(next(pool) for _ in range(int(rng.integers(2, 5)))) for task in TASK_ORDER}


def test_c02_gradient_fidelity(acc):
    with criterion(2, "gradient fidelity"):
        t0 = time.monotonic()
        params, config, vocab = acc["params"], acc["config"], acc["vocab"]
        registry, records = acc["registry"], acc["records"]
        rotation = ["enc0_ln1_g", "dec0_ln3_b", "type_emb", "mask_vec_acoustic",
                    "proj_visual_b", "enc0_attn_bq", "dec0_cross_bo", "dec0_self_bv",
                    "enc0_ffn_b1", "dataset_emb", "proj_acoustic_b", "enc0_ln2_b",
                    "dec0_ln1_g", "mask_vec_visual"]
        polarities = list(Polarity)
        worst = {}

        for seed in range(21):
            rng = np.random.default_rng(1000 + seed)
            name = rotation[seed % len(rotation)]
            chosen = [records[int(i)] for i in rng.choice(len(records), size=3, replace=False)]
            prompts = [build_prompt(r, vocab, registry, config.max_len) for r in chosen]
            plans = [sample_mcm_plan(p, float(rng.uniform(0.3, 0.7)), rng) for p in prompts]
            labmap = random_labels(acc, rng)
            label_ids = label_token_ids(labmap, vocab)
            pseudo = np.array([int(rng.integers(len(labmap[t]))) for t in TASK_ORDER])
            pair = [r for r in chosen[:2]]
            ccl_labels = [polarities[int(rng.integers(3))] for _ in prompts]

            losses = {
                "mcm": lambda: loss_mcm(
                    encode_batch(prompts[:2], params, config, vocab, mask_plans=plans[:2]),
                    [(prompts[0], plans[0]), (prompts[1], plans[1])], params),
                "spp": lambda: loss_spp(encode_batch(prompts[:1], params, config, vocab),
                                        [polarities[seed % 3]], params, config, vocab),
                "ccl": lambda: loss_ccl(
                    [encode(p, params, config, vocab).pooled for p in prompts], ccl_labels),
                "cep": lambda: loss_cep(
                    encode_batch(prompts[1:2], params, config, vocab, mask_plans=plans[1:2]),
                    [pseudo], params, config, vocab, label_ids),
                "stage1": lambda: stage1_loss(
                    [Stage1Example(prompt=prompts[0], plan=plans[0], polarity=Polarity.POSITIVE),
                     Stage1Example(prompt=prompts[2], plan=plans[2], polarity=Polarity.NEGATIVE)],
                    params, config, vocab)[1],
                "stage2": lambda: stage2_loss(
                    [Stage2Example(prompt=prompts[0], plan=plans[0], pseudo=pseudo)],
                    params, config, vocab, label_ids)[1],
                "generation": lambda: generation_loss(
                    [(p, gold_token_ids(r, registry, vocab)) for p, r in zip(prompts[:2], pair)],
                    params, config, vocab),
            }
            for loss_name, f in losses.items():
                err = finite_diff_check(lambda t: f(), params[name])
                assert err <= 1e-4, f"{loss_name} vs {name} at seed {seed}: {err}"
                worst[loss_name] = max(worst.get(loss_name, 0.0), err)

        assert set(worst) == {"mcm", "spp", "ccl", "cep", "stage1", "stage2", "generation"}
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. overfit sanity


def test_c03_overfit_sanity(acc, tmp_path):
    with criterion(3, "overfit sanity"):
        t0 = time.monotonic()
        registry, records = acc["registry"], acc["records"]
        model_cfg = replace(acc["config"], vocab_size=0, num_datasets=0)

        ft_cfg = TrainConfig(learning_rate=3e-3, batch_size=16, dropout_rate=0.0, seed=0,
                             max_steps=500, modal_mask_augment=False, num_speakers=8,
                             validate_every_epochs=0, max_new_tokens=6)
        ck = run_finetune(records, registry, model_cfg, ft_cfg, tmp_path / "overfit")
        cfg, arrays, meta = load_checkpoint(ck)
        trained = params_from_arrays(cfg, arrays)
        vocab = Vocab(meta["vocab"], meta["vocab_datasets"], meta["vocab_speakers"])
        train_acc = decode_accuracy(records, trained, cfg, vocab, registry, max_new=6)
        assert train_acc >= 0.95, f"decode accuracy {train_acc} after 500 steps"

        s1_cfg = TrainConfig(learning_rate=1e-3, batch_size=8, dropout_rate=0.0, seed=0,
                             max_steps=200, modal_mask_augment=True, num_speakers=8,
                             validate_every_epochs=0)
        run_pretrain_stage1(records, registry, model_cfg, s1_cfg, tmp_path / "stage1")
        log = (tmp_path / "stage1" / "metrics.jsonl").read_text()
        totals = [json.loads(l)["total"] for l in log.splitlines()]
        assert len(totals) == 200
        windows = [float(np.mean(totals[i:i + 50])) for i in range(0, 200, 50)]
        assert all(windows[k + 1] < windows[k] for k in range(3)), windows
        assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 4. modal-mask contract


def test_c04_modal_mask_contract(acc):
    with criterion(4, "modal-mask contract"):
        vocab = acc["vocab"]
        tav = acc["prompts"]["mosi-toy"]
        assert [s.kind for s in tav.modal_segments] == ["acoustic", "visual"]
        rng = np.random.default_rng(42)
        counts = {}
        for _ in range(10_000):
            s = sample_modal_setting(tav, rng)
            counts[s] = counts.get(s, 0) + 1
        assert set(counts) == {ModalitySetting.T, ModalitySetting.TA,
                               ModalitySetting.TV, ModalitySetting.TAV}
        for s, c in counts.items():
            assert abs(c / 10_000 - 0.25) <= 0.02, (s, c)

        text_only = acc["prompts"]["sst-toy"]
        assert all(sample_modal_setting(text_only, rng) is ModalitySetting.T
                   for _ in range(1_000))

        masked = eligible = 0
        prompts = [acc["prompts"]["meld-toy"], tav, acc["prompts"]["absa-toy"]]
        while eligible < 10_000:
            for ps in prompts:
                zy = len(ps.z_tokens) + len(ps.y_tokens)
                positions = ps.maskable
                plan = sample_mcm_plan(ps, 0.5, rng)
                assert all(p >= zy for p in plan.masked_token_positions)
                assert set(plan.masked_token_positions) <= set(positions)
                eligible += len(positions)
                masked += len(plan.masked_token_positions)
        fraction = masked / eligible
        assert 0.48 <= fraction <= 0.52, fraction


# ---------------------------------------------------------------------------
# 5. task-average sampling


def test_c05_task_average_sampling(acc):
    with criterion(5, "task-average sampling"):
        records = acc["records"]
        task_of = {i: r.task_type for i, r in enumerate(records)}
        rng = np.random.default_rng(7)
        pools = task_pools(records, rng)
        for _ in range(1_000):
            counts = {t: 0 for t in TASK_ORDER}
            for task, idx in task_average_sample(pools, 64, rng):
                assert task_of[idx] is task
                counts[task] += 1
            assert all(c == 16 for c in counts.values()), counts

        pools = task_pools(records, rng)
        cumulative = {t: 0 for t in TASK_ORDER}
        for _ in range(1_000):
            counts = {t: 0 for t in TASK_ORDER}
            for task, _ in task_average_sample(pools, 6, rng):
                counts[task] += 1
                cumulative[task] += 1
            assert max(counts.values()) - min(counts.values()) <= 1, counts
        assert max(cumulative.values()) - min(cumulative.values()) <= 1, cumulative


# ---------------------------------------------------------------------------
# 6. contrastive-loss properties


def test_c06_ccl_properties():
    with criterion(6, "contrastive-loss properties"):
        rng = np.random.default_rng(13)
        for _ in range(1_000):
            b = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 5))
            pts = [rng.normal(size=dim) for _ in range(b)]
            labels = [f"l{int(rng.integers(3))}" for _ in range(b)]
            value = loss_ccl([ad.constant(p) for p in pts], labels).item()
            assert 0.0 <= value <= b, (value, b)

        pts = [rng.normal(size=3) for _ in range(4)]
        all_same = loss_ccl([ad.constant(p) for p in pts], ["x"] * 4).item()
        assert abs(all_same - 4.0) < 1e-12
        all_diff = loss_ccl([ad.constant(p) for p in pts], ["a", "b", "c", "d"]).item()
        assert all_diff == 0.0

        labels = ["a", "b", "a", "b"]
        base = loss_ccl([ad.constant(p) for p in pts], labels).item()
        for factor in (1e-9, 1e-3, 1e6):
            scaled = loss_ccl([ad.constant(p * factor) for p in pts], labels).item()
            assert abs(scaled - base) < 1e-9, factor

        hand = loss_ccl([ad.constant(np.array([v])) for v in (0.0, 1.0, 3.0)],
                        [Polarity.POSITIVE, Polarity.POSITIVE, Polarity.NEGATIVE]).item()
        assert abs(hand - (0.25 + 1.0 / 3.0)) <= 1e-6


# ---------------------------------------------------------------------------
# 7. pseudo-label oracle


def test_c07_pseudo_label_oracle():
    with criterion(7, "pseudo-label oracle"):
        rng = np.random.default_rng(17)
        ties_seen = 0
        for case in range(100):
            dim = int(rng.integers(1, 9))
            n_labels = int(rng.integers(1, 5))
            labels = [f"l{k}" for k in range(n_labels)]
            # small integer coordinates so exact distance ties occur
            def grid(size):
                return rng.integers(-2, 3, size=size).astype(np.float64)

            tasks = [t for t in TASK_ORDER if rng.random() < 0.7] or [TaskType.ABSA]
            items = []
            for task in tasks:
                for _ in range(int(rng.integers(1, 11))):
                    items.append((task, labels[int(rng.integers(n_labels))], grid(dim)))
            # the run's label table: each task's labels, sorted; a pseudo label
            # is an index into it, and the matrix has one column per task
            table = {t: sorted({lab for task, lab, _ in items if task is t}) for t in tasks}
            own = [tasks.index(task) for task, _, _ in items]
            gold = [table[task].index(lab) for task, lab, _ in items]
            centroids = build_centroids(np.array([vec for *_, vec in items]), own, gold)
            query = grid(dim)
            q_own = int(rng.integers(len(tasks)))
            q_gold = int(rng.integers(len(table[tasks[q_own]])))
            pseudo = assign_pseudo_labels([query], centroids, [q_own], [q_gold])[0]
            assert pseudo[q_own] == q_gold
            for t, task in enumerate(tasks):
                # brute force: each label's mean, summed in item order
                means = {}
                for lab in table[task]:
                    vecs = [vec for tk, lb, vec in items if tk is task and lb == lab]
                    means[lab] = sum(vecs[1:], vecs[0]) / len(vecs)
                assert np.array_equal(centroids[t], np.array([means[lab] for lab in table[task]]))
                if t == q_own:
                    continue
                d2 = {lab: float(np.sum((c - query) ** 2)) for lab, c in means.items()}
                best = min(d2, key=lambda lab: (d2[lab], lab))
                ties_seen += sum(d == d2[best] for d in d2.values()) > 1
                assert table[task][pseudo[t]] == best

            source = [(labels[int(rng.integers(n_labels))], grid(dim))
                      for _ in range(int(rng.integers(1, 11)))]
            target = [(labels[int(rng.integers(n_labels))], grid(dim))
                      for _ in range(int(rng.integers(1, 11)))]
            cents = label_centroids([lab for lab, _ in target], [vec for _, vec in target])
            got_pseudo, got_acc = cross_annotate(source, cents)
            hits = 0
            for (gold, vec), assigned in zip(source, got_pseudo):
                d2 = {lab: float(np.sum((np.asarray(c) - vec) ** 2)) for lab, c in zip(*cents)}
                best = min(d2, key=lambda lab: (d2[lab], lab))
                ties_seen += sum(d == d2[best] for d in d2.values()) > 1
                assert assigned == best
                hits += best == gold
            assert got_acc == pytest.approx(100.0 * hits / len(source))
        assert ties_seen > 0, "tie-break path never exercised"


# ---------------------------------------------------------------------------
# 8. metric oracles


def brute_f1(golds, preds, cls):
    tp = sum(g == p == cls for g, p in zip(golds, preds))
    fp = sum(g != cls and p == cls for g, p in zip(golds, preds))
    fn = sum(g == cls and p != cls for g, p in zip(golds, preds))
    return 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0


def brute_bin(v):
    b = int(math.copysign(math.floor(abs(v) + 0.5), v))
    return max(-3, min(3, b))


def test_c08_metric_oracles():
    with criterion(8, "metric oracles"):
        assert metric_wa(["a", "a", "b", "c"], ["a", "b", "b", "c"]) == 0.75
        wf1 = metric_wf1(["a", "a", "b"], ["a", "b", "b"])
        assert wf1 == pytest.approx(2 / 3, abs=1e-12)  # the worked 0.6667 case
        mf1 = metric_mf1_excl_neutral(["anger", "joy", "neutral"],
                                      ["anger", "neutral", "neutral"])
        assert mf1 == pytest.approx(0.5, abs=1e-12)
        msa = metrics_msa([1.0, -2.5, 0.0, 2.0], [1.5, -2.5, -1.0, 0.5])
        assert msa["mae"] == pytest.approx(0.75, abs=1e-12)
        assert msa["acc7"] == pytest.approx(0.25, abs=1e-12)
        assert msa["acc2"] == pytest.approx(1.0, abs=1e-12)

        rng = np.random.default_rng(19)
        labels = ["a", "b", "c", "neutral"]
        for _ in range(100):
            n = int(rng.integers(1, 15))
            golds = [labels[i] for i in rng.integers(0, 4, size=n)]
            preds = [labels[i] for i in rng.integers(0, 4, size=n)]
            assert metric_wa(golds, preds) == pytest.approx(
                sum(g == p for g, p in zip(golds, preds)) / n)
            want = sum(golds.count(c) / n * brute_f1(golds, preds, c) for c in set(golds))
            assert metric_wf1(golds, preds) == pytest.approx(want)
            informative = sorted(set(golds) - {"neutral"})
            if informative:
                want = np.mean([brute_f1(golds, preds, c) for c in informative])
                assert metric_mf1_excl_neutral(golds, preds) == pytest.approx(want)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            golds = list(np.round(rng.uniform(-3, 3, size=n), 1))
            preds = list(np.round(rng.uniform(-3.5, 3.5, size=n), 1))
            got = metrics_msa(golds, preds) if any(g != 0 for g in golds) else None
            if got is None:
                continue
            assert got["mae"] == pytest.approx(
                np.mean([abs(g - p) for g, p in zip(golds, preds)]))
            assert got["acc7"] == pytest.approx(
                np.mean([brute_bin(g) == brute_bin(p) for g, p in zip(golds, preds)]))
            kept = [(g, p) for g, p in zip(golds, preds) if g != 0.0]
            assert got["acc2"] == pytest.approx(
                np.mean([(g > 0) == (p > 0) for g, p in kept]))
            for g, p in zip(golds, preds):
                assert bin_scalar(g) == brute_bin(g) and bin_scalar(p) == brute_bin(p)


# ---------------------------------------------------------------------------
# 9. determinism and roundtrips


def random_record(rng, words, registry):
    dataset = ("sst-toy", "absa-toy", "meld-toy", "mosi-toy")[int(rng.integers(4))]
    spec = registry.spec(dataset)
    text = " ".join(words[int(i)] for i in rng.integers(0, len(words),
                                                        size=int(rng.integers(1, 10))))
    if spec.answer.scalar:
        label = float(np.round(rng.uniform(-3, 3), 1))
    else:
        label = spec.answer.labels[int(rng.integers(len(spec.answer.labels)))]
    audio = rng.normal(size=(int(rng.integers(1, 4)), spec.acoustic_dim)) \
        if spec.acoustic_dim else None
    image = rng.normal(size=(int(rng.integers(1, 4)), spec.visual_dim)) \
        if spec.visual_dim else None
    context = speaker = utt = None
    if spec.task_type is TaskType.ERC:
        depth = int(rng.integers(0, 5))
        context = tuple((f"spk{int(rng.integers(8))}",
                         " ".join(words[int(i)] for i in rng.integers(0, len(words),
                                                                      size=int(rng.integers(1, 6)))))
                        for _ in range(depth))
        speaker = f"spk{int(rng.integers(8))}"
        utt = depth
    return SaevalRecord(task_type=spec.task_type, dataset_id=dataset, text=text,
                        audio=audio, image=image, context=context, speaker_id=speaker,
                        utterance_index=utt, label=label)


def records_equal(a, b):
    if (a.task_type, a.dataset_id, a.text, a.context, a.speaker_id,
            a.utterance_index, a.label) != \
       (b.task_type, b.dataset_id, b.text, b.context, b.speaker_id,
            b.utterance_index, b.label):
        return False
    for x, y in ((a.audio, b.audio), (a.image, b.image)):
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return True


def test_c09_determinism_and_roundtrips(acc, tmp_path):
    with criterion(9, "determinism and roundtrips"):
        registry, records = acc["registry"], acc["records"]
        model_cfg = replace(acc["config"], vocab_size=0, num_datasets=0)
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, dropout_rate=0.1, seed=11,
                         max_steps=4, num_speakers=8, validate_every_epochs=0)

        ck_a = run_finetune(records, registry, model_cfg, tc, tmp_path / "a")
        ck_b = run_finetune(records, registry, model_cfg, tc, tmp_path / "b")
        assert ck_a.read_bytes() == ck_b.read_bytes()
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
               (tmp_path / "b" / "metrics.jsonl").read_bytes()
        s1_a = run_pretrain_stage1(records, registry, model_cfg, tc, tmp_path / "s1a")
        s1_b = run_pretrain_stage1(records, registry, model_cfg, tc, tmp_path / "s1b")
        assert s1_a.read_bytes() == s1_b.read_bytes()
        assert (tmp_path / "s1a" / "metrics.jsonl").read_bytes() == \
               (tmp_path / "s1b" / "metrics.jsonl").read_bytes()

        # corpus load -> serialize -> load identity
        twice = tmp_path / "corpus_twice.jsonl"
        serialize_corpus(records, twice)
        again = load_corpus(twice, registry)
        assert len(again) == len(records)
        assert all(records_equal(x, y) for x, y in zip(records, again))

        # checkpoint save -> load -> save byte stability
        cfg, arrays, meta = load_checkpoint(ck_a)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, cfg, arrays, meta=meta)
        assert resaved.read_bytes() == ck_a.read_bytes()

        # prompt flatten/re-segment roundtrip under fuzzing
        vocab, max_len = acc["vocab"], acc["config"].max_len
        words = sorted({w for r in records for w in r.text.split()}) + ["zorp", "unseenword"]
        rng = np.random.default_rng(23)
        by_polarity = {}
        for r in records:
            if r.dataset_id == "sst-toy":
                by_polarity.setdefault(r.label, []).append(r)
        pair = next(group for group in by_polarity.values() if len(group) >= 2)
        for case in range(1_000):
            if case % 10 == 9:
                ps = combine_queries(*(build_prompt(r, vocab, registry, max_len) for r in pair[:2]),
                                     vocab, registry, max_len)
            else:
                ps = build_prompt(random_record(rng, words, registry), vocab, registry, max_len)
            spans = resegment_prompt(ps.ids, vocab)
            assert spans["z"] == ps.z_tokens
            assert spans["y"] == ps.y_tokens
            assert spans["context"] == ps.x_context
            assert spans["x"] == ps.x_tokens


# ---------------------------------------------------------------------------
# 10. dataset-embedding isolation


def test_c10_dataset_embedding_isolation(acc):
    with criterion(10, "dataset-embedding isolation"):
        params, config, vocab = acc["params"], acc["config"], acc["vocab"]
        registry = acc["registry"]
        record = next(r for r in acc["records"] if r.dataset_id == "meld-toy")
        ps = acc["prompts"]["meld-toy"]
        active = registry.index("meld-toy")
        assert ps.dataset_index == active

        loss = generation_loss([(ps, gold_token_ids(record, registry, vocab))],
                               params, config, vocab)
        grad = ad.backward(loss).get(params["dataset_emb"])
        assert grad is not None
        assert np.any(grad[active] != 0.0)
        inactive = [k for k in range(grad.shape[0]) if k != active]
        assert np.all(grad[inactive] == 0.0)
