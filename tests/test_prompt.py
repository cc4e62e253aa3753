import string

import numpy as np
import pytest

from sentigen.data import AnswerSet, Registry, SaevalRecord, TaskType
from sentigen.errors import ContractError, DecodeError, VocabularyError
from sentigen.prompt import (Vocab, answer_set_tokens, build_prompt, build_vocab, decode_label,
                             detokenize, edit_distance, flatten_prompt, parse_scalar,
                             resegment_prompt, speaker_index, tokenize)

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
    assert vocab.is_special(vocab.n_special - 1)
    assert not vocab.is_special(vocab.n_special)


def test_vocab_rejects_bad_prefix():
    with pytest.raises(VocabularyError):
        Vocab(["<pad>", "<bos>"], 0, 0)
    with pytest.raises(VocabularyError):
        Vocab(["x"] * 12, 0, 0)


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
    assert all(not vocab.is_special(i) or i == vocab.unk_id for i in ids)


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
    flat = flatten_prompt(ps, vocab)
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
    tight = build_prompt(r2, vocab, registry, full.token_length + full.frame_count - 3)
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
        spans = resegment_prompt(flatten_prompt(ps, vocab), vocab)
        assert spans["z"] == ps.z_tokens
        assert spans["y"] == ps.y_tokens
        assert spans["context"] == ps.x_context
        assert spans["x"] == ps.x_tokens


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
