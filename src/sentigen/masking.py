"""Modal-combination sampling and token/frame mask plans.

Text is always kept. For each training example one modality setting is drawn
uniformly from the settings its record actually supports (text-only records
can only draw T), then content tokens and remaining modal frames are masked
independently at a fixed rate. Task-marker and answer-set spans are never
maskable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import ContractError
from .prompt import PromptSequence, flatten_prompt


class ModalitySetting(Enum):
    T = ("text",)
    TA = ("text", "acoustic")
    TV = ("text", "visual")
    TAV = ("text", "acoustic", "visual")

    @property
    def kinds(self):
        return set(self.value) - {"text"}


_ALL_SETTINGS = (ModalitySetting.T, ModalitySetting.TA, ModalitySetting.TV, ModalitySetting.TAV)


@dataclass(frozen=True)
class MaskPlan:
    masked_token_positions: tuple
    masked_modal_frames: dict

    def __post_init__(self):
        object.__setattr__(self, "masked_token_positions", tuple(sorted(self.masked_token_positions)))
        object.__setattr__(self, "masked_modal_frames",
                           {k: tuple(sorted(v)) for k, v in self.masked_modal_frames.items()})


def available_settings(ps):
    kinds = {seg.kind for seg in ps.modal_segments}
    return tuple(s for s in _ALL_SETTINGS if s.kinds <= kinds)


def sample_modal_setting(ps, rng):
    """Uniform draw over the settings the prompt's modalities support."""
    options = available_settings(ps)
    return options[int(rng.integers(len(options)))]


def apply_modal_setting(ps, setting):
    """Drop modal segments outside the setting. Requesting a modality the
    prompt does not carry is a contract error; T is always applicable."""
    kinds = {seg.kind for seg in ps.modal_segments}
    if not setting.kinds <= kinds:
        missing = sorted(setting.kinds - kinds)
        raise ContractError(f"setting {setting.name} needs missing modalities {missing}")
    segments = tuple(seg for seg in ps.modal_segments if seg.kind in setting.kinds)
    return replace(ps, modal_segments=segments)


def mcm_eligible_positions(ps):
    """Indices (into the flattened token stream) that masking may touch:
    context utterance words and query words. Task/dataset/speaker markers,
    answer-set tokens, and segment separators stay untouched."""
    eligible = []
    pos = len(ps.z_tokens) + len(ps.y_tokens)
    for utt in ps.x_context:
        eligible.extend(range(pos + 1, pos + len(utt)))  # skip the leading speaker token
        pos += len(utt)
    if ps.x_context:
        pos += 1  # the separator before the query
    eligible.extend(range(pos, pos + len(ps.x_tokens)))
    return eligible


def sample_mcm_plan(ps, p_mask, rng, vocab):
    """Draw a mask plan: each eligible token and each remaining modal frame is
    masked independently with probability ``p_mask``."""
    if not (0.0 <= p_mask <= 1.0):
        raise ContractError(f"mask probability {p_mask} outside [0, 1]")
    flat = flatten_prompt(ps, vocab)
    token_hits = []
    for pos in mcm_eligible_positions(ps):
        if flat[pos] == vocab.sep_id:
            continue  # combined-query separators stay visible
        if rng.random() < p_mask:
            token_hits.append(pos)

    frame_hits = {}
    for seg in ps.modal_segments:
        hits = tuple(i for i in range(seg.features.shape[0]) if rng.random() < p_mask)
        if hits:
            frame_hits[seg.kind] = hits
    return MaskPlan(masked_token_positions=tuple(token_hits), masked_modal_frames=frame_hits)
