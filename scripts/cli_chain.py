"""Run the fixed-seed CLI chain at two model sizes and print a digest of
every file it writes.

    python scripts/cli_chain.py OUT_DIR

The chain runs, from relative paths inside ``OUT_DIR/<size>``: make-corpus
-> pretrain1 -> pretrain2 ``--init`` -> pretrain2 ``--resume
checkpoint_step2`` -> finetune ``--init --val-corpus`` -> eval ``--out`` ->
export-embeddings -> bias-report ``--embeddings --out``, with dropout 0.1, 4
steps, a centroid refresh every 2 steps and a checkpoint every 2. It runs
once at d=16 (``d16``), whose model fits in one Adam update block, and once
at the dimensions of ``benchmarks/workloads.d64_config`` (``d64``), whose
~203K parameters span about 13 blocks. It prints one sorted JSON object
mapping each file's path relative to ``OUT_DIR`` to its sha256. Two runs, on
one commit or on two commits that must not change any output, print the same
text; ``diff`` their outputs. It exits 1 when a command fails or when a
resumed stage-two checkpoint differs from the uninterrupted one.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from sentigen.cli import main  # noqa: E402
from workloads import d64_config  # noqa: E402

TRAIN = {"learning_rate": 1e-3, "batch_size": 8, "dropout_rate": 0.1, "max_steps": 4,
         "checkpoint_every": 2, "centroid_refresh_every": 2, "num_speakers": 8,
         "validate_every_epochs": 1, "max_new_tokens": 3}
D16 = {"model_dim": 16, "text_embed_dim": 16, "acoustic_dim": 8, "visual_dim": 4,
       "layers_enc": 1, "layers_dec": 1, "heads": 2, "ffn_dim": 32, "max_len": 96}
MODELS = {"d16": D16, "d64": {key: getattr(d64_config(), key) for key in D16}}

DATA = ["--corpus", "data/corpus.jsonl", "--registry", "data/registry.json"]
RUN = DATA + ["--config", "config.json"]
CHAIN = [
    ["make-corpus", "--out", "data", "--seed", "5", "--per-task", "6"],
    ["pretrain1", *RUN, "--out", "s1"],
    ["pretrain2", *RUN, "--out", "s2", "--init", "s1/checkpoint.ckpt"],
    ["pretrain2", *RUN, "--out", "s2-resumed", "--resume", "s2/checkpoint_step2.ckpt"],
    ["finetune", *RUN, "--out", "ft", "--init", "s2/checkpoint.ckpt",
     "--val-corpus", "data/corpus.jsonl"],
    ["eval", *DATA, "--checkpoint", "ft/checkpoint.ckpt", "--out", "eval", "--max-new", "3"],
    ["export-embeddings", *DATA, "--checkpoint", "ft/checkpoint.ckpt", "--out", "emb"],
    ["bias-report", "--embeddings", "emb/embeddings.jsonl", "--out", "bias"],
]


def chain_config(model, seed=3):
    """The text of the chain's ``config.json``: ``TRAIN``, the ``model``
    section, and ``seed``, which seeds initialization, batch order and
    dropout."""
    return json.dumps({"seed": seed, "train": TRAIN, "model": model}, indent=2) + "\n"


def run_chain(out_dir, model):
    """Run ``CHAIN`` inside ``out_dir`` with the ``model`` config section;
    return {relative path: sha256}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    Path("config.json").write_text(chain_config(model))
    for argv in CHAIN:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code:
            sys.exit(f"cli_chain: {' '.join(argv[:1])} exited {code}")
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*")) if p.is_file()}


def main_chain(argv):
    if len(argv) != 1:
        sys.exit("usage: python scripts/cli_chain.py OUT_DIR")
    digests = {}
    for size, model in MODELS.items():
        leg = run_chain(Path(argv[0]).resolve() / size, model)
        if leg["s2/checkpoint.ckpt"] != leg["s2-resumed/checkpoint.ckpt"]:
            sys.exit(f"cli_chain: the resumed stage-two checkpoint differs from the "
                     f"uninterrupted one at {size}")
        digests.update({f"{size}/{path}": digest for path, digest in leg.items()})
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main_chain(sys.argv[1:]))
