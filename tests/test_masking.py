import numpy as np
import pytest

from sentigen.errors import ContractError
from sentigen.masking import (MaskPlan, ModalitySetting, apply_modal_setting,
                              available_settings, sample_mcm_plan, sample_modal_setting)
from sentigen.prompt import build_prompt, combine_queries


def pick(records, dataset):
    return next(r for r in records if r.dataset_id == dataset)


def prompts(toy):
    vocab, registry = toy["vocab"], toy["registry"]
    return {d: build_prompt(pick(toy["records"], d), vocab, registry, 128)
            for d in ("sst-toy", "meld-toy", "mosi-toy")}


def test_available_settings_follow_modalities(toy):
    ps = prompts(toy)
    assert available_settings(ps["sst-toy"]) == (ModalitySetting.T,)
    assert available_settings(ps["meld-toy"]) == (ModalitySetting.T, ModalitySetting.TA)
    assert available_settings(ps["mosi-toy"]) == (ModalitySetting.T, ModalitySetting.TA,
                                                  ModalitySetting.TV, ModalitySetting.TAV)


def test_sample_setting_uniform_and_forced_t(toy):
    ps = prompts(toy)
    rng = np.random.default_rng(0)
    draws = [sample_modal_setting(ps["mosi-toy"], rng) for _ in range(2000)]
    counts = {s: draws.count(s) for s in set(draws)}
    assert set(counts) == {ModalitySetting.T, ModalitySetting.TA,
                           ModalitySetting.TV, ModalitySetting.TAV}
    for c in counts.values():
        assert abs(c / 2000 - 0.25) < 0.05
    assert all(sample_modal_setting(ps["sst-toy"], rng) is ModalitySetting.T
               for _ in range(50))


def test_apply_modal_setting(toy):
    ps = prompts(toy)
    kept = apply_modal_setting(ps["mosi-toy"], ModalitySetting.TA)
    assert [s.kind for s in kept.modal_segments] == ["acoustic"]
    bare = apply_modal_setting(ps["mosi-toy"], ModalitySetting.T)
    assert bare.modal_segments == ()
    # token spans are untouched
    assert bare.z_tokens == ps["mosi-toy"].z_tokens
    assert bare.x_tokens == ps["mosi-toy"].x_tokens
    with pytest.raises(ContractError):
        apply_modal_setting(ps["sst-toy"], ModalitySetting.TA)


def test_eligible_positions_skip_markers(toy):
    vocab = toy["vocab"]
    ps = prompts(toy)["meld-toy"]
    flat = list(ps.ids)
    eligible = ps.maskable
    zy = len(ps.z_tokens) + len(ps.y_tokens)
    assert all(p >= zy for p in eligible)  # never inside Z or Y
    # leading speaker token of each context utterance is excluded
    pos = zy
    for utt in ps.x_context:
        assert pos not in eligible
        pos += len(utt)
    assert flat.index(vocab.sep_id, zy) not in eligible
    assert all(flat[p] != vocab.sep_id for p in eligible)  # no <sep> is maskable
    # all query positions eligible
    qstart = len(flat) - len(ps.x_tokens)
    assert set(range(qstart, len(flat))) <= set(eligible)


def test_sample_plan_probability_and_span_safety(toy):
    ps = prompts(toy)["meld-toy"]
    eligible = set(ps.maskable)
    rng = np.random.default_rng(1)
    hits = 0
    trials = 3000
    for _ in range(trials):
        plan = sample_mcm_plan(ps, 0.5, rng)
        assert set(plan.masked_token_positions) <= eligible
        hits += len(plan.masked_token_positions)
    rate = hits / (trials * len(eligible))
    assert abs(rate - 0.5) < 0.03

    none = sample_mcm_plan(ps, 0.0, rng)
    assert none.masked_token_positions == () and none.masked_modal_frames == {}
    everything = sample_mcm_plan(ps, 1.0, rng)
    assert set(everything.masked_token_positions) == eligible
    assert set(everything.masked_modal_frames["acoustic"]) == set(
        range(ps.modal_segments[0].features.shape[0]))


def test_plan_respects_modal_setting(toy):
    ps = prompts(toy)["mosi-toy"]
    rng = np.random.default_rng(2)
    reduced = apply_modal_setting(ps, ModalitySetting.TV)
    plan = sample_mcm_plan(reduced, 0.5, rng)
    assert "acoustic" not in plan.masked_modal_frames

    with pytest.raises(ContractError):
        sample_mcm_plan(ps, 1.5, rng)


def old_rule_plan(ps, p_mask, rng, sep_id):
    """The draw order before prompts carried ``maskable``: walk the flattened
    stream's context words (each utterance's speaker token skipped) and its
    query words, skip a <sep> without drawing, then draw each modal frame."""
    flat = list(ps.z_tokens) + list(ps.y_tokens)
    walk = []
    for utt in ps.x_context:
        walk += range(len(flat) + 1, len(flat) + len(utt))
        flat += utt
    if ps.x_context:
        flat.append(sep_id)
    walk += range(len(flat), len(flat) + len(ps.x_tokens))
    flat += ps.x_tokens
    tokens = [p for p in walk if flat[p] != sep_id and rng.random() < p_mask]
    frames = {}
    for seg in ps.modal_segments:
        hits = tuple(i for i in range(seg.features.shape[0]) if rng.random() < p_mask)
        if hits:
            frames[seg.kind] = hits
    return tuple(tokens), frames


def test_plan_draws_in_the_old_order(toy):
    """One seed, one plan: ``sample_mcm_plan`` over ``maskable`` draws what
    the old walk drew, on every toy record's prompt and on same-polarity
    pairs, whose queries hold a <sep>."""
    vocab, registry = toy["vocab"], toy["registry"]
    singles = [build_prompt(r, vocab, registry, 128) for r in toy["records"]]
    pairs = [combine_queries(a, b, vocab, registry, 128) for a in singles[::3] for b in singles[::4]]
    assert any(vocab.sep_id in ps.x_tokens for ps in pairs)
    for k, ps in enumerate(singles + pairs):
        for p_mask in (0.0, 0.3, 0.7, 1.0):
            new, old = np.random.default_rng(k), np.random.default_rng(k)
            plan = sample_mcm_plan(ps, p_mask, new)
            tokens, frames = old_rule_plan(ps, p_mask, old, vocab.sep_id)
            assert plan.masked_token_positions == tokens
            assert plan.masked_modal_frames == frames
            assert new.random() == old.random()  # as many draws: the streams stay in step


def test_mask_plan_normalizes_order():
    plan = MaskPlan(masked_token_positions=(5, 2, 9),
                    masked_modal_frames={"acoustic": (3, 1)})
    assert plan.masked_token_positions == (2, 5, 9)
    assert plan.masked_modal_frames["acoustic"] == (1, 3)
