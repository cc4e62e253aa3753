"""Run the fixed-seed CLI chain and print a digest of every file it writes.

    python scripts/cli_chain.py OUT_DIR

The chain runs, from relative paths inside ``OUT_DIR``: make-corpus ->
pretrain1 -> pretrain2 ``--init`` -> pretrain2 ``--resume checkpoint_step2``
-> finetune ``--init --val-corpus`` -> eval ``--out`` -> export-embeddings ->
bias-report ``--embeddings --out``, at d=16 with dropout 0.1, 4 steps, a
centroid refresh every 2 steps and a checkpoint every 2. It prints one sorted
JSON object mapping each file's path relative to ``OUT_DIR`` to its sha256.
Two runs, on one commit or on two commits that must not change any output,
print the same text; ``diff`` their outputs. It exits 1 when a command fails
or when the resumed stage-two checkpoint differs from the uninterrupted one.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sentigen.cli import main  # noqa: E402

CONFIG = {
    "seed": 3,
    "train": {"learning_rate": 1e-3, "batch_size": 8, "dropout_rate": 0.1, "max_steps": 4,
              "checkpoint_every": 2, "centroid_refresh_every": 2, "num_speakers": 8,
              "validate_every_epochs": 1, "max_new_tokens": 3},
    "model": {"model_dim": 16, "text_embed_dim": 16, "acoustic_dim": 8, "visual_dim": 4,
              "layers_enc": 1, "layers_dec": 1, "heads": 2, "ffn_dim": 32, "max_len": 96},
}

DATA = ["--corpus", "data/corpus.jsonl", "--registry", "data/registry.json"]
TRAIN = DATA + ["--config", "config.json"]
CHAIN = [
    ["make-corpus", "--out", "data", "--seed", "5", "--per-task", "6"],
    ["pretrain1", *TRAIN, "--out", "s1"],
    ["pretrain2", *TRAIN, "--out", "s2", "--init", "s1/checkpoint.ckpt"],
    ["pretrain2", *TRAIN, "--out", "s2-resumed", "--resume", "s2/checkpoint_step2.ckpt"],
    ["finetune", *TRAIN, "--out", "ft", "--init", "s2/checkpoint.ckpt",
     "--val-corpus", "data/corpus.jsonl"],
    ["eval", *DATA, "--checkpoint", "ft/checkpoint.ckpt", "--out", "eval", "--max-new", "3"],
    ["export-embeddings", *DATA, "--checkpoint", "ft/checkpoint.ckpt", "--out", "emb"],
    ["bias-report", "--embeddings", "emb/embeddings.jsonl", "--out", "bias"],
]


def run_chain(out_dir):
    """Run ``CHAIN`` inside ``out_dir``; return {relative path: sha256}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    Path("config.json").write_text(json.dumps(CONFIG, indent=2) + "\n")
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
    digests = run_chain(Path(argv[0]).resolve())
    if digests["s2/checkpoint.ckpt"] != digests["s2-resumed/checkpoint.ckpt"]:
        sys.exit("cli_chain: the resumed stage-two checkpoint differs from the uninterrupted one")
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main_chain(sys.argv[1:]))
