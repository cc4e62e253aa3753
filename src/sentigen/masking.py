"""Modal-combination sampling and token/frame mask plans.

Text is always kept. For each training example one modality setting is drawn
uniformly from the settings its record actually supports (text-only records
can only draw T), then the prompt's maskable tokens and its remaining modal
frames are masked independently at a fixed rate. Which tokens are maskable
is the prompt's own ``PromptSequence.maskable``: context and query words,
never a task, dataset or speaker marker, the answer set or a ``<sep>``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import ContractError


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


def sample_mcm_plan(ps, p_mask, rng):
    """Draw a mask plan: each of the prompt's ``maskable`` tokens, in stream
    order, and then each remaining modal frame is masked independently with
    probability ``p_mask``."""
    if not (0.0 <= p_mask <= 1.0):
        raise ContractError(f"mask probability {p_mask} outside [0, 1]")
    token_hits = tuple(pos for pos in ps.maskable if rng.random() < p_mask)
    frame_hits = {}
    for seg in ps.modal_segments:
        hits = tuple(i for i in range(seg.features.shape[0]) if rng.random() < p_mask)
        if hits:
            frame_hits[seg.kind] = hits
    return MaskPlan(masked_token_positions=token_hits, masked_modal_frames=frame_hits)
