import hashlib
import string
from dataclasses import replace

import numpy as np
import pytest

from sentigen.data import (POOL_DATASET_ID, AnswerSet, Registry, SaevalRecord, TaskType,
                           to_polarity)
from sentigen.errors import ConfigError, ContractError, DecodeError, VocabularyError
from sentigen.prompt import (Vocab, answer_set_tokens, build_prompt, build_vocab, combine_queries,
                             decode_label, detokenize, edit_distance, parse_scalar,
                             speaker_index, tokenize)

from conftest import resegment_prompt
from test_data import mini_registry


@pytest.fixture(scope="module")
def world(toy):
    return toy["vocab"], toy["registry"], toy["records"]


# ---------------------------------------------------------------------------
# vocabulary


def test_special_block_order(world):
    vocab, registry, _ = world
    assert vocab.tokens[:8] == ["<pad>", "<bos>", "<eos>", "<unk>", "<mask>", "<sep>",
                                "<ans>", "</ans>"]
    assert vocab.tokens[8:12] == ["<task_absa>", "<task_msa>", "<task_erc>", "<task_ca>"]
    for i, d in enumerate(registry.dataset_ids):
        assert vocab.tokens[12 + i] == f"<data:{d}>"
    for k in range(vocab.num_speakers):
        assert vocab.tokens[12 + len(registry) + k] == f"<speaker_{k}>"
    # the special block ends with the last speaker token, and the next id is a word
    assert vocab.tokens[vocab.n_special - 1] == f"<speaker_{vocab.num_speakers - 1}>"
    assert not vocab.tokens[vocab.n_special].startswith("<")


def test_synthetic_corpus_vocabulary_order_is_pinned(world):
    """After the specials come the printable characters, then their
    continuation forms, then the forced label pieces (polarities, each
    dataset's labels, the scalar literals), then the corpus pieces by
    descending count, ties by text, each piece where it first appears. Every
    token id of the synthetic corpus's vocabulary is pinned by its digest."""
    vocab = world[0]
    tokens, n = vocab.tokens, vocab.n_special
    chars = [ch for ch in string.printable if not ch.isspace()]
    assert (len(tokens), n) == (337, 25)
    assert tokens[n:n + 2 * len(chars)] == chars + ["##" + ch for ch in chars]
    forced = n + 2 * len(chars)
    assert tokens[forced:forced + 8] == ["positive", "negative", "neutral", "anger", "joy",
                                         "##3.0", "##2.9", "##2.8"]
    assert tokens[forced + 65:forced + 72] == ["3.0", "is", "the", "market", "today", "points",
                                               "went"]
    assert tokens[-3:] == ["unchanged", "wonderful", "zero"]
    assert hashlib.sha256("\n".join(tokens).encode()).hexdigest() == \
        "7b003a644026750f239fafa7feaad8984780f81f5ceb470cd3c1d898128186f0"


def test_vocab_rejects_bad_prefix():
    with pytest.raises(VocabularyError):
        Vocab(["<pad>", "<bos>"], 0, 0)
    with pytest.raises(VocabularyError):
        Vocab(["x"] * 12, 0, 0)


def test_vocab_lookups_refuse_unknown_tokens_and_ids(world):
    vocab, _, _ = world
    assert vocab.surface(vocab.id_of("<sep>")) == "<sep>"
    with pytest.raises(VocabularyError, match="not in the vocabulary"):
        vocab.id_of("<no such token>")
    for bad in (-1, len(vocab)):
        with pytest.raises(VocabularyError, match="out of range"):
            vocab.surface(bad)


def test_build_prompt_refuses_a_record_of_another_task(world):
    """A record built in code, past the loader's check, whose task is not
    its dataset's is a ConfigError."""
    vocab, registry, records = world
    record = next(r for r in records if r.task_type is TaskType.CA)
    with pytest.raises(ConfigError, match="conflicts with registry entry"):
        build_prompt(SaevalRecord(task_type=TaskType.ABSA, dataset_id=record.dataset_id,
                                  text=record.text, label=record.label), vocab, registry, 64)


def test_build_prompt_refuses_a_record_whose_text_has_no_token(world):
    """A record built in code, past the loader's non-empty text check, whose
    query is empty is a ContractError that says so: no budget cut empties a
    query, since the markers always leave it one token."""
    vocab, registry, records = world
    record = next(r for r in records if r.task_type is TaskType.CA)
    with pytest.raises(ContractError, match="prompt has no query token"):
        build_prompt(replace(record, text=""), vocab, registry, 64)


def test_speaker_reserved_range(world):
    vocab, _, _ = world
    assert vocab.speaker_id_token(0) == vocab.id_of("<speaker_0>")
    with pytest.raises(VocabularyError):
        vocab.speaker_id_token(vocab.num_speakers)
    with pytest.raises(VocabularyError):
        speaker_index("alice")
    assert speaker_index("spk3") == 3


# ---------------------------------------------------------------------------
# tokenize / detokenize


def test_tokenize_basics(world):
    vocab, _, _ = world
    assert tokenize("", vocab) == []
    a, b = tokenize("battery battery", vocab)  # in-vocab word: one id each
    assert a == b
    ids = tokenize("zzq zzq", vocab)  # out-of-vocab word: identical piece runs
    assert ids[:len(ids) // 2] == ids[len(ids) // 2:]
    assert vocab.unk_id in tokenize("café", vocab)  # non-ASCII char -> unknown


def test_tokenize_never_emits_specials(world):
    vocab, _, _ = world
    ids = tokenize("<task:ca> <data:sst-toy> <speaker_0> <mask>", vocab)
    assert all(i >= vocab.n_special or i == vocab.unk_id for i in ids)


@pytest.mark.parametrize("seed", range(20))
def test_ascii_roundtrip(world, seed):
    vocab, _, _ = world
    rng = np.random.default_rng(seed)
    chars = string.ascii_letters + string.digits + string.punctuation
    words = ["".join(rng.choice(list(chars), size=rng.integers(1, 9)))
             for _ in range(rng.integers(1, 8))]
    text = " ".join(words)
    assert detokenize(tokenize(text, vocab), vocab) == " ".join(text.split())


# ---------------------------------------------------------------------------
# prompt construction


def pick(records, dataset):
    return next(r for r in records if r.dataset_id == dataset)


def test_erc_prompt_structure(world):
    vocab, registry, records = world
    r = pick(records, "meld-toy")
    ps = build_prompt(r, vocab, registry, 128)
    assert len(ps.z_tokens) == 3  # task, dataset, speaker
    assert ps.z_tokens[0] == vocab.task_id(TaskType.ERC)
    assert ps.z_tokens[1] == vocab.dataset_id_token("meld-toy")
    assert len(ps.x_context) == len(r.context)
    for utt, (spk, _) in zip(ps.x_context, r.context):
        assert utt[0] == vocab.speaker_id_token(speaker_index(spk))
    flat = ps.ids
    # context precedes the query in the linearization
    qpos = len(flat) - len(ps.x_tokens)
    assert flat[qpos - 1] == vocab.sep_id
    assert ps.dataset_index == registry.index("meld-toy")


def test_ca_prompt_structure(world):
    vocab, registry, records = world
    ps = build_prompt(pick(records, "sst-toy"), vocab, registry, 128)
    assert len(ps.z_tokens) == 2
    assert ps.x_context == ()
    assert ps.modal_segments == ()
    assert ps.y_tokens[0] == vocab.ans_open_id and ps.y_tokens[-1] == vocab.ans_close_id


def test_msa_prompt_modalities_and_anchor_answers(world):
    vocab, registry, records = world
    r = pick(records, "mosi-toy")
    ps = build_prompt(r, vocab, registry, 128)
    kinds = [seg.kind for seg in ps.modal_segments]
    assert kinds == ["acoustic", "visual"]
    assert np.array_equal(ps.modal_segments[0].features, r.audio)
    assert np.array_equal(ps.modal_segments[1].features, r.image)
    text = detokenize([i for i in ps.y_tokens[1:-1]], vocab)
    for anchor in ("-3.0", "-1.0", "0.0", "3.0"):
        assert anchor in text
    assert text.count("|") == 6  # seven anchors


def test_z_span_injective(world):
    vocab, registry, records = world
    seen = {}
    for r in records:
        ps = build_prompt(r, vocab, registry, 128)
        key = (r.task_type, r.dataset_id, r.speaker_id if r.task_type is TaskType.ERC else None)
        if key in seen:
            assert seen[key] == ps.z_tokens
        for other_key, other_z in seen.items():
            if other_key != key:
                assert other_z != ps.z_tokens
        seen[key] = ps.z_tokens


def test_truncation_drops_oldest_context_first(world):
    vocab, registry, records = world
    r = pick(records, "meld-toy")
    long_context = tuple((f"spk{k % 4}", "some earlier words spoken here") for k in range(6))
    r2 = SaevalRecord(task_type=r.task_type, dataset_id=r.dataset_id, text=r.text,
                      audio=r.audio, image=r.image, context=long_context,
                      speaker_id=r.speaker_id, utterance_index=6, label=r.label)
    full = build_prompt(r2, vocab, registry, 512)
    tight = build_prompt(r2, vocab, registry, len(full.ids) + full.frame_count - 3)
    assert tight.truncated
    assert len(tight.x_context) < len(full.x_context)
    assert tight.x_context == full.x_context[len(full.x_context) - len(tight.x_context):]
    assert tight.x_tokens == full.x_tokens  # query trimmed only after context is gone

    with pytest.raises(ContractError):
        build_prompt(r2, vocab, registry, 8)  # markers alone cannot fit


def test_flatten_resegment_roundtrip(world):
    vocab, registry, records = world
    for r in records:
        ps = build_prompt(r, vocab, registry, 128)
        spans = resegment_prompt(ps.ids, vocab)
        assert spans["z"] == ps.z_tokens
        assert spans["y"] == ps.y_tokens
        assert spans["context"] == ps.x_context
        assert spans["x"] == ps.x_tokens


def assert_stream_matches_spans(ps, vocab):
    """``ps.ids`` and ``ps.maskable`` against an oracle spelled out cell by
    cell from the spans: Z and Y are markers; each context utterance is its
    speaker marker then maskable words; a separator closes the context; the
    query's words are maskable, a <sep> among them is not. ``ids`` parses
    back into the spans."""
    cells = [(t, False) for t in ps.z_tokens + ps.y_tokens]
    for speaker, *words in ps.x_context:
        cells += [(speaker, False)] + [(t, True) for t in words]
    if ps.x_context:
        cells.append((vocab.sep_id, False))
    cells += [(t, t != vocab.sep_id) for t in ps.x_tokens]
    assert ps.ids == tuple(t for t, _ in cells)
    assert ps.maskable == tuple(i for i, (_, m) in enumerate(cells) if m)
    assert resegment_prompt(ps.ids, vocab) == \
        {"z": ps.z_tokens, "y": ps.y_tokens, "context": ps.x_context, "x": ps.x_tokens}


def test_stream_and_maskable_match_the_span_oracle(world):
    """Every corpus record's prompt, every same-polarity pair of them, random
    records truncated at small ``max_len``, and prompts whose query was
    swapped by ``dataclasses.replace``, which derives both fields anew."""
    from dataclasses import replace
    from test_acceptance import random_record
    vocab, registry, records = world
    prompts = [build_prompt(r, vocab, registry, 128) for r in records]
    for ps in prompts:
        assert_stream_matches_spans(ps, vocab)
    polarity = [to_polarity(r.label, r.dataset_id) for r in records]
    for i, a in enumerate(prompts):
        for j, b in enumerate(prompts):
            if polarity[i] is polarity[j]:
                pair = combine_queries(a, b, vocab, registry, 128)
                assert vocab.sep_id in pair.x_tokens
                assert_stream_matches_spans(pair, vocab)

    words = sorted({w for r in records for w in r.text.split()}) + ["zorp"]
    rng = np.random.default_rng(23)
    cut = 0
    for _ in range(300):
        try:
            ps = build_prompt(random_record(rng, words, registry), vocab, registry,
                              int(rng.integers(12, 40)))
        except ContractError:
            continue
        cut += ps.truncated
        assert_stream_matches_spans(ps, vocab)
    assert cut

    meld = prompts[[r.dataset_id for r in records].index("meld-toy")]
    swapped = replace(meld, x_tokens=tuple(tokenize("a new query", vocab)))
    assert swapped.ids[-len(swapped.x_tokens):] == swapped.x_tokens != meld.x_tokens
    assert_stream_matches_spans(swapped, vocab)
    joined = replace(prompts[0], x_tokens=(*prompts[0].x_tokens, vocab.sep_id, vocab.unk_id))
    assert_stream_matches_spans(joined, vocab)
    assert len(joined.maskable) == len(prompts[0].maskable) + 1


# ---------------------------------------------------------------------------
# stage-one pair prompts


def pair_registry():
    """A registry with the pool dataset and acoustic frames of two widths."""
    return Registry.from_json({
        "rev": {"task_type": "ca", "answer_set": ["negative", "positive"],
                "acoustic_dim": 3, "visual_dim": None, "metrics": ["wa"]},
        "conv": {"task_type": "erc", "answer_set": ["anger", "joy", "neutral"],
                 "acoustic_dim": 3, "visual_dim": None, "metrics": ["wf1"]},
        "wide": {"task_type": "ca", "answer_set": ["negative", "positive"],
                 "acoustic_dim": 4, "visual_dim": None, "metrics": ["wa"]},
        POOL_DATASET_ID: {"task_type": "ca", "answer_set": ["negative", "neutral", "positive"],
                          "acoustic_dim": 3, "visual_dim": None, "metrics": ["wa"]},
    })


def rec(text, label, dataset="rev", audio=None, **conversation):
    task = TaskType.ERC if dataset == "conv" else TaskType.CA
    return SaevalRecord(task_type=task, dataset_id=dataset, text=text, audio=audio, label=label,
                        **conversation)


def test_answer_set_ids_are_tokenized_once_per_vocab(monkeypatch):
    """A dataset's answer-set ids are tokenized at their first use only:
    later prompts and stage-one pairs read the same ids and tokenize none
    of them again, and another vocabulary tokenizes its own."""
    import sentigen.prompt as prompt_module
    registry = pair_registry()
    a, b = rec("good phone", "positive"), rec("bad case", "negative")
    vocab = build_vocab([a, b], registry, num_speakers=2)
    pa, pb = (build_prompt(r, vocab, registry, 64) for r in (a, b))
    pool = registry.spec(POOL_DATASET_ID).answer
    first = combine_queries(pa, pb, vocab, registry, 64)
    calls = []
    real = prompt_module.tokenize
    monkeypatch.setattr(prompt_module, "tokenize", lambda *args: calls.append(args) or real(*args))
    for _ in range(3):
        assert combine_queries(pb, pa, vocab, registry, 64).y_tokens == first.y_tokens
    assert calls == []
    assert answer_set_tokens(pool, vocab) is answer_set_tokens(pool, vocab)
    other = build_vocab([a, b], registry, num_speakers=2)
    assert answer_set_tokens(pool, other) == first.y_tokens and calls


def test_combine_queries_merges_text_and_features():
    registry = pair_registry()
    a = rec("good phone", "positive", audio=np.ones((2, 3), dtype=np.float32))
    b = rec("lovely case", "joy", dataset="conv", speaker_id="spk0",
            context=(("spk1", "earlier words"),), utterance_index=1)
    c = rec("also good", "positive", audio=2.0 * np.ones((1, 3), dtype=np.float32))
    vocab = build_vocab([a, b, c], registry, num_speakers=2)
    pa, pb, pc = (build_prompt(r, vocab, registry, 64) for r in (a, b, c))
    out = combine_queries(pa, pb, vocab, registry, 64)
    assert out.z_tokens == (vocab.task_id(TaskType.CA), vocab.dataset_id_token(POOL_DATASET_ID))
    assert out.y_tokens == tuple(answer_set_tokens(registry.spec(POOL_DATASET_ID).answer, vocab))
    assert out.dataset_index == registry.index(POOL_DATASET_ID)
    assert out.x_context == ()  # a conversation record brings its query only
    assert detokenize(out.x_tokens, vocab) == "good phone <sep> lovely case"
    assert not out.truncated
    # single-sided features retained
    assert [seg.kind for seg in out.modal_segments] == ["acoustic"]
    assert np.array_equal(out.modal_segments[0].features, a.audio)

    both = combine_queries(pa, pc, vocab, registry, 64)
    features = both.modal_segments[0].features
    assert features.shape == (3, 3)
    assert np.array_equal(features[:2], a.audio)
    assert np.array_equal(features[2:], c.audio)


def test_combine_queries_rejects_mismatches():
    registry = pair_registry()
    c = rec("nice", "positive", audio=np.ones((1, 3), dtype=np.float32))
    d = rec("fine", "positive", dataset="wide", audio=np.ones((1, 4), dtype=np.float32))
    vocab = build_vocab([c, d], registry, num_speakers=0)
    pc, pd = (build_prompt(r, vocab, registry, 64) for r in (c, d))
    with pytest.raises(ContractError, match="acoustic dimensions differ"):
        combine_queries(pc, pd, vocab, registry, 64)
    # markers and both records' frames leave no room for a query token
    markers = 2 + len(answer_set_tokens(registry.spec(POOL_DATASET_ID).answer, vocab))
    with pytest.raises(ContractError, match="cannot fit"):
        combine_queries(pc, pc, vocab, registry, markers + 2)
    misdeclared = Registry.from_json({**registry.to_json(), POOL_DATASET_ID: {
        "task_type": "absa", "answer_set": ["negative", "positive"],
        "acoustic_dim": None, "visual_dim": None, "metrics": ["wa"]}})
    with pytest.raises(ConfigError, match=POOL_DATASET_ID):
        combine_queries(pc, pc, vocab, misdeclared, 64)


def pair_oracle(a, b, vocab, registry, max_len):
    """Stage one's pair rule on spans: the pool dataset's markers and answer
    set, no context, ``a``'s query, a separator and ``b``'s query cut to the
    room the frames leave, and each modality's frames, ``a``'s first. None
    when the markers and frames leave no room."""
    z = (vocab.task_id(TaskType.CA), vocab.dataset_id_token(POOL_DATASET_ID))
    y = tuple(answer_set_tokens(registry.spec(POOL_DATASET_ID).answer, vocab))
    frames = {kind: [seg.features for ps in (a, b) for seg in ps.modal_segments
                     if seg.kind == kind] for kind in ("acoustic", "visual")}
    room = max_len - sum(f.shape[0] for parts in frames.values() for f in parts) - len(z) - len(y)
    if room <= 0:
        return None
    query = a.x_tokens + (vocab.sep_id,) + b.x_tokens
    return {"z": z, "y": y, "context": (), "x": query[:room],
            "truncated": a.truncated or b.truncated or len(query) > room,
            "frames": {kind: np.concatenate(parts) for kind, parts in frames.items() if parts},
            "dataset_index": registry.index(POOL_DATASET_ID)}


def assert_pair_matches_oracle(a, b, vocab, registry, max_len):
    want = pair_oracle(a, b, vocab, registry, max_len)
    if want is None:
        with pytest.raises(ContractError):
            combine_queries(a, b, vocab, registry, max_len)
        return None
    got = combine_queries(a, b, vocab, registry, max_len)
    assert resegment_prompt(got.ids, vocab) == \
        {k: want[k] for k in ("z", "y", "context", "x")}
    assert (got.x_context, got.x_tokens, got.truncated, got.dataset_index) == \
        ((), want["x"], want["truncated"], want["dataset_index"])
    assert [seg.kind for seg in got.modal_segments] == list(want["frames"])
    for seg in got.modal_segments:
        assert seg.features.dtype == np.float32
        assert np.array_equal(seg.features, want["frames"][seg.kind])
    return got


@pytest.mark.parametrize("max_len", [16, 24, 96])
def test_every_corpus_pair_matches_the_span_oracle(world, max_len):
    """Every ordered same-polarity pair of the make-corpus corpus, a record
    with itself included, is the oracle's pair; where neither record's own
    prompt was truncated, its query is the two texts' tokens around a
    separator, as a pair built from the two records' texts."""
    vocab, registry, records = world
    fitting = []
    for r in records:
        try:
            fitting.append((r, build_prompt(r, vocab, registry, max_len)))
        except ContractError:
            continue  # a run's plan rejects such a record before any pair
    assert len(fitting) >= len(records) // 2
    pairs = truncated = 0
    for ra, pa in fitting:
        for rb, pb in fitting:
            if to_polarity(ra.label, ra.dataset_id) is not to_polarity(rb.label, rb.dataset_id):
                continue
            pairs += 1
            got = assert_pair_matches_oracle(pa, pb, vocab, registry, max_len)
            if got is not None and not (pa.truncated or pb.truncated):
                query = tokenize(ra.text, vocab) + [vocab.sep_id] + tokenize(rb.text, vocab)
                assert list(got.x_tokens) == query[:len(got.x_tokens)]
                truncated += got.truncated
    assert pairs > len(fitting)
    if max_len == 16:
        assert truncated  # the pair's own budget cuts queries no record's prompt cut


def test_random_pairs_match_the_span_oracle(world):
    """Random records at small ``max_len``, where the records' own prompts
    and the pairs' budgets truncate, match the oracle."""
    from test_acceptance import random_record
    vocab, registry, records = world
    words = sorted({w for r in records for w in r.text.split()}) + ["zorp", "unseenword"]
    rng = np.random.default_rng(19)
    own = cut = 0
    for _ in range(400):
        max_len = int(rng.integers(12, 40))
        prompts = []
        while len(prompts) < 2:
            try:
                prompts.append(build_prompt(random_record(rng, words, registry), vocab,
                                            registry, max_len))
            except ContractError:
                continue
        got = assert_pair_matches_oracle(*prompts, vocab, registry, max_len)
        if got is not None:
            a, b = prompts
            own += a.truncated or b.truncated
            cut += len(got.x_tokens) < len(a.x_tokens) + 1 + len(b.x_tokens)
    assert own and cut


# ---------------------------------------------------------------------------
# decoding


def test_decode_exact_and_fuzzy(world):
    vocab, _, _ = world
    answers = AnswerSet(labels=("positive", "negative", "neutral"))
    assert decode_label(tokenize("positive", vocab), answers, vocab).value == "positive"
    out = decode_label(tokenize("positiv", vocab), answers, vocab)
    assert out.value == "positive" and out.fallback

    # tie between two labels at equal distance resolves to the earlier one
    pair = AnswerSet(labels=("cat", "car"))
    out = decode_label(tokenize("caw", vocab), pair, vocab)
    assert out.value == "cat"


def test_decode_every_answer_roundtrips(world):
    vocab, registry, _ = world
    for d in registry.dataset_ids:
        answer = registry.spec(d).answer
        labels = ([f"{v}.0" for v in range(-3, 4)] if answer.scalar else answer.labels)
        for label in labels:
            got = decode_label(tokenize(label, vocab), answer, vocab)
            assert not got.fallback
            assert str(got.value) == label


def test_decode_scalar(world):
    vocab, _, _ = world
    scalar = AnswerSet.scalar_range(-3.0, 3.0)
    assert decode_label(tokenize("-3.7", vocab), scalar, vocab).value == -3.0
    assert decode_label(tokenize("2.4", vocab), scalar, vocab).value == 2.4
    out = decode_label(tokenize("utterly unknowable", vocab), scalar, vocab)
    assert out.value == 0.0 and out.fallback
    with pytest.raises(DecodeError):
        decode_label([vocab.bos_id, vocab.eos_id], scalar, vocab)
    assert parse_scalar("about -1.5 overall") == -1.5


def test_edit_distance():
    assert edit_distance("", "abc") == 3
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("same", "same") == 0


def test_answer_set_tokens_categorical(world):
    vocab, _, _ = world
    answers = AnswerSet(labels=("anger", "joy"))
    ids = answer_set_tokens(answers, vocab)
    assert ids[0] == vocab.ans_open_id and ids[-1] == vocab.ans_close_id
    assert detokenize(ids[1:-1], vocab) == "anger | joy"
