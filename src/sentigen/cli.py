"""Command-line entry point.

Subcommands cover the full workflow: make-corpus (deterministic synthetic
data), validate, the two pre-training stages, fine-tuning, evaluation,
representation export, and the bias report. Configuration comes from an
optional JSON file plus flags (flags win). Runtime failures print a single
JSON line on stderr and exit 1; configuration/usage problems exit 2. Each
command reads and checks its inputs and computes its results before its
first write (a training run builds its prompt table before its manifest),
and writes every file through ``data``.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bias import (AccuracyMatrix, bias_report, build_accuracy_matrix, fixture_accuracy_matrix,
                   render_bias_report)
from .data import (POOL_DATASET_ID, Registry, load_corpus, read_json, read_jsonl,
                   write_feature_sidecar, write_json, write_jsonl, write_manifest)
from .errors import ConfigError, DataError, SentigenError
from .evaluation import evaluate_records
from .model import ModelConfig, config_from_json, pooled_vectors
from .prompt import build_prompt
from .training import (TrainConfig, load_model, run_finetune, run_pretrain_stage1,
                       run_pretrain_stage2)

# ---------------------------------------------------------------------------
# configuration


@dataclass
class _ConfigFile:
    """The top level of a ``--config`` file."""

    seed: int | None = None
    train: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)


def _load_config_file(path):
    obj = {} if path is None else read_json(path, "config file")
    return config_from_json(_ConfigFile, obj, "config file")


def _resolve_train_config(args, config):
    cfg = TrainConfig.from_json(config.train)
    for seed in (config.seed, getattr(args, "seed", None)):
        if seed is not None:
            cfg = replace(cfg, seed=seed)
    return cfg.validate()


def _load_inputs(args):
    registry = Registry.load(args.registry)
    return load_corpus(args.corpus, registry), registry


def _load_with_model(args):
    """``eval``'s and ``export-embeddings``' inputs: (records, registry,
    config, params, vocab) from the corpus, registry and checkpoint; an empty
    corpus is a DataError."""
    records, registry = _load_inputs(args)
    config, params, vocab, _, _ = load_model(args.checkpoint, registry)
    if not records:
        raise DataError("corpus holds no records", path=str(args.corpus))
    return records, registry, config, params, vocab


# ---------------------------------------------------------------------------
# synthetic corpus

_SST_POS = ("a great movie", "wonderful acting throughout", "a delightful story")
_SST_NEG = ("an awful movie", "terrible acting throughout", "a dreadful story")
_ABSA_ASPECTS = ("battery", "screen", "camera", "keyboard")
_ABSA_CUES = {"positive": ("excellent", "superb"),
              "negative": ("poor", "broken"),
              "neutral": ("standard", "unchanged")}
_ERC_CUES = {"anger": "furious shouting right now",
             "joy": "laughing with pure delight",
             "neutral": "a plain statement of fact"}
_ERC_FILLER = ("we talked earlier", "the meeting ran long", "dinner is ready", "look outside")
_MSA_SIGN = {"up": 1.0, "down": -1.0}
_MSA_MAG = {"one": 1.0, "two": 2.0, "three": 3.0}


def make_synthetic_corpus(out_dir, seed=0, per_task=6):
    """Write a small deterministic corpus with planted lexical cues (so tiny
    models can actually fit it) plus its registry. One conversation record
    references a binary feature sidecar; everything else is inline. Returns
    (corpus_path, registry_path). ``per_task`` below 1, or a negative
    ``seed``, is a ConfigError, raised before anything is written."""
    if per_task < 1:
        raise ConfigError(f"per_task {per_task} must be at least 1")
    if seed < 0:
        raise ConfigError(f"seed {seed} must be non-negative")
    out = Path(out_dir)
    rng = np.random.default_rng(seed)
    rows = []
    audio_dim, visual_dim = 8, 4

    def frames(n, dim):
        return [[round(float(x), 4) for x in row] for row in rng.normal(0.0, 0.5, size=(n, dim))]

    base = {"audio": None, "image": None, "context": None,
            "speaker_id": None, "utterance_index": None}

    for i in range(per_task):
        pos = i % 2 == 0
        pool = _SST_POS if pos else _SST_NEG
        rows.append({**base, "task_type": "ca", "dataset_id": "sst-toy",
                     "text": pool[i % len(pool)],
                     "label": "positive" if pos else "negative"})

    absa_labels = ("positive", "negative", "neutral")
    for i in range(per_task):
        label = absa_labels[i % 3]
        cue = _ABSA_CUES[label][i % 2]
        aspect = _ABSA_ASPECTS[i % len(_ABSA_ASPECTS)]
        rows.append({**base, "task_type": "absa", "dataset_id": "absa-toy",
                     "text": f"the {aspect} is {cue}", "label": label})

    erc_labels = tuple(_ERC_CUES)
    sidecar_name, sidecar = "meld-toy-0.saev", None
    for i in range(per_task):
        label = erc_labels[i % 3]
        n_ctx = 1 + i % 2
        context = [[f"spk{(i + k + 1) % 4}", _ERC_FILLER[(i + k) % len(_ERC_FILLER)]]
                   for k in range(n_ctx)]
        audio = frames(2, audio_dim)
        if i == 0:
            sidecar, audio = audio, sidecar_name
        rows.append({**base, "task_type": "erc", "dataset_id": "meld-toy",
                     "text": _ERC_CUES[label], "audio": audio,
                     "context": context, "speaker_id": f"spk{i % 4}",
                     "utterance_index": n_ctx, "label": label})

    signs = tuple(_MSA_SIGN)
    mags = tuple(_MSA_MAG)
    for i in range(per_task):
        if i % 4 == 3:
            text, label = "market stayed flat at zero today", 0.0
        else:
            s, m = signs[i % 2], mags[i % 3]
            text = f"market went {s} {m} points today"
            label = _MSA_SIGN[s] * _MSA_MAG[m]
        rows.append({**base, "task_type": "msa", "dataset_id": "mosi-toy",
                     "text": text, "audio": frames(2, audio_dim),
                     "image": frames(1, visual_dim), "label": label})

    registry = {
        "sst-toy": {"task_type": "ca", "answer_set": ["negative", "positive"],
                    "acoustic_dim": None, "visual_dim": None, "metrics": ["wa", "wf1"]},
        "absa-toy": {"task_type": "absa", "answer_set": ["negative", "neutral", "positive"],
                     "acoustic_dim": None, "visual_dim": None, "metrics": ["wa", "wf1"]},
        "meld-toy": {"task_type": "erc", "answer_set": ["anger", "joy", "neutral"],
                     "acoustic_dim": audio_dim, "visual_dim": None,
                     "metrics": ["wa", "wf1", "mf1_excl_neutral"]},
        "mosi-toy": {"task_type": "msa", "answer_set": {"kind": "scalar", "min": -3.0, "max": 3.0},
                     "acoustic_dim": audio_dim, "visual_dim": visual_dim,
                     "metrics": ["mae", "acc7", "acc2"]},
        POOL_DATASET_ID: {"task_type": "ca",
                          "answer_set": ["negative", "neutral", "positive"],
                          "acoustic_dim": audio_dim, "visual_dim": visual_dim,
                          "metrics": ["wa"]},
    }
    corpus_path, registry_path = out / "corpus.jsonl", out / "registry.json"
    write_feature_sidecar(out / sidecar_name, sidecar)
    write_jsonl(corpus_path, rows)
    Registry.from_json(registry).save(registry_path)
    return corpus_path, registry_path


# ---------------------------------------------------------------------------
# subcommands


def cmd_make_corpus(args):
    corpus, registry = make_synthetic_corpus(args.out, seed=args.seed, per_task=args.per_task)
    write_manifest(args.out, "make-corpus", args.seed,
                   {"per_task": args.per_task, "seed": args.seed})
    print(json.dumps({"corpus": str(corpus), "registry": str(registry)}))
    return 0


def cmd_validate(args):
    records, registry = _load_inputs(args)
    by_dataset = {}
    for r in records:
        by_dataset[r.dataset_id] = by_dataset.get(r.dataset_id, 0) + 1
    print(json.dumps({"records": len(records),
                      "datasets": by_dataset,
                      "registry": registry.dataset_ids}))
    return 0


def _run_training(args, runner, **extra):
    config = _load_config_file(args.config)
    train_cfg = _resolve_train_config(args, config)
    model_cfg = ModelConfig.from_json(config.model)
    records, registry = _load_inputs(args)
    if getattr(args, "val_corpus", None):
        extra["val_records"] = load_corpus(args.val_corpus, registry)
    path = runner(records, registry, model_cfg, train_cfg, args.out, **extra)
    print(json.dumps({"checkpoint": str(path)}))
    return 0


def cmd_pretrain1(args):
    return _run_training(args, run_pretrain_stage1, resume_from=args.resume)


def cmd_pretrain2(args):
    return _run_training(args, run_pretrain_stage2, init_checkpoint=args.init,
                         resume_from=args.resume)


def cmd_finetune(args):
    return _run_training(args, run_finetune, init_checkpoint=args.init,
                         resume_from=args.resume)


def _metric_table(payload):
    """Aligned text table: one row per dataset, one column per metric name."""
    names = sorted({m for row in payload.values() for m in row if m not in ("samples",)})
    width = max(len(d) for d in payload) + 2
    cell = max([len(n) for n in names] + [8]) + 2
    lines = [" " * width + "".join(f"{n:>{cell}}" for n in names)]
    for dataset in sorted(payload):
        row = payload[dataset]
        cells = "".join(f"{row[n]:>{cell}.4f}" if n in row else " " * cell for n in names)
        lines.append(f"{dataset:<{width}}" + cells)
    return "\n".join(lines)


def cmd_eval(args):
    if args.max_new < 1:
        raise ConfigError(f"--max-new {args.max_new} must be at least 1")
    records, registry, config, params, vocab = _load_with_model(args)
    if args.max_new > config.max_len:
        raise ConfigError(f"--max-new {args.max_new} exceeds the model's max_len {config.max_len}")
    results = evaluate_records(records, params, config, vocab, registry, max_new=args.max_new)
    payload = {d: {**r.metrics, "fallback_rate": r.fallback_rate, "samples": len(r.golds)}
               for d, r in sorted(results.items())}
    if args.out:
        write_manifest(args.out, "eval", None, {"checkpoint": str(args.checkpoint)})
        write_json(Path(args.out) / "eval.json", payload, sort_keys=True)
    print(_metric_table(payload))
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_export_embeddings(args):
    records, registry, config, params, vocab = _load_with_model(args)
    prompts = [build_prompt(record, vocab, registry, config.max_len) for record in records]
    vectors = pooled_vectors(prompts, params, config, vocab)
    rows = [{"dataset_id": record.dataset_id,
             "sample_id": i,
             "label": registry.spec(record.dataset_id).answer.render(record.label),
             "vector": [float(x) for x in vec]}
            for i, (record, vec) in enumerate(zip(records, vectors))]
    write_manifest(args.out, "export-embeddings", None, {"checkpoint": str(args.checkpoint)})
    path = Path(args.out) / "embeddings.jsonl"
    write_jsonl(path, rows)
    print(json.dumps({"embeddings": str(path), "records": len(records)}))
    return 0


def _matrix_from_embeddings(path, correspondence):
    p = str(path)
    items = {}
    for line, obj in read_jsonl(path, "embeddings file"):
        try:
            d, label = obj["dataset_id"], obj["label"]
            vec = np.asarray(obj["vector"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad embeddings row: {type(exc).__name__}: {exc}", line=line, path=p) from None
        if not isinstance(d, str) or not isinstance(label, str):
            raise DataError("dataset_id and label must be strings", line=line, path=p)
        if vec.ndim != 1 or vec.size == 0 or not np.all(np.isfinite(vec)):
            raise DataError("vector must be a non-empty flat array of finite numbers", line=line, path=p)
        items.setdefault(d, []).append((label, vec))
    if not items:
        raise DataError("embeddings file holds no rows", path=p)
    unknown = sorted({d for pair in correspondence or () for d in pair} - items.keys())
    if unknown:  # a mistyped id would score its pair with the identity map, silently
        raise ConfigError(f"correspondence names datasets {unknown} that {p} does not hold; "
                          f"it holds {list(items)}")
    return build_accuracy_matrix(items, correspondence=correspondence)


def _load_correspondence(path):
    if path is None:
        return None
    obj = read_json(path, "correspondence file")
    shape_ok = isinstance(obj, dict) and all(
        isinstance(targets, dict) and all(
            isinstance(mapping, dict) and all(v is None or isinstance(v, str)
                                              for v in mapping.values())
            for mapping in targets.values())
        for targets in obj.values())
    if not shape_ok:
        raise ConfigError(f"correspondence file {path} must map source dataset -> target dataset "
                          "-> {source label: target label or null}")
    return {(src, tgt): dict(mapping)
            for src, targets in obj.items() for tgt, mapping in targets.items()}


def cmd_bias_report(args):
    if args.acc_matrix and args.embeddings:
        raise ConfigError("pass either --acc-matrix or --embeddings, not both")
    if args.correspondence and not args.embeddings:
        raise ConfigError("--correspondence needs --embeddings")
    if args.acc_matrix:
        matrix = AccuracyMatrix.from_json(read_json(args.acc_matrix, "accuracy matrix file",
                                                     DataError))
    elif args.embeddings:
        matrix = _matrix_from_embeddings(args.embeddings, _load_correspondence(args.correspondence))
    else:
        matrix = fixture_accuracy_matrix()
    report = bias_report(matrix)
    text = render_bias_report(report)
    if args.out:
        write_manifest(args.out, "bias-report", None, matrix.to_json())
        write_json(Path(args.out) / "bias_report.json",
                   {"accuracy": matrix.to_json(), **report.to_json()})
    print(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sentigen",
        description="Unified generative sentiment analysis: data, pre-training, "
                    "fine-tuning, evaluation, and bias reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, out=True):
        p.add_argument("--corpus", required=True, help="JSONL corpus path")
        p.add_argument("--registry", required=True, help="registry JSON path")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    def add_train(p):
        add_io(p)
        p.add_argument("--config", help="JSON config file (train/model sections)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--resume", help="resume from this mid-run checkpoint")

    p = sub.add_parser("make-corpus", help="write a deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-task", type=int, default=6, dest="per_task")
    p.set_defaults(func=cmd_make_corpus)

    p = sub.add_parser("validate", help="parse and validate a corpus against its registry")
    add_io(p, out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pretrain1", help="stage-one pre-training on polarity pair pools")
    add_train(p)
    p.set_defaults(func=cmd_pretrain1)

    p = sub.add_parser("pretrain2", help="stage-two pre-training with pseudo labels")
    add_train(p)
    p.add_argument("--init", help="stage-one checkpoint to start from")
    p.set_defaults(func=cmd_pretrain2)

    p = sub.add_parser("finetune", help="answer-generation fine-tuning")
    add_train(p)
    p.add_argument("--init", help="pre-trained checkpoint to start from")
    p.add_argument("--val-corpus", dest="val_corpus", help="held-out corpus for epoch validation")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="generate, decode and score a corpus")
    add_io(p, out=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="optional directory for eval.json")
    p.add_argument("--max-new", type=int, default=8, dest="max_new")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="write pooled encoder vectors per record")
    add_io(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("bias-report", help="pairwise annotation-transfer bias scores")
    p.add_argument("--acc-matrix", dest="acc_matrix",
                   help="accuracy matrix JSON (default: bundled published table)")
    p.add_argument("--embeddings", help="embeddings.jsonl from export-embeddings")
    p.add_argument("--correspondence", help="label correspondence JSON (with --embeddings)")
    p.add_argument("--out", help="optional directory for bias_report.json")
    p.set_defaults(func=cmd_bias_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None and Path(out).exists() and not Path(out).is_dir():
            raise ConfigError(f"output directory {out} exists and is not a directory")
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except SentigenError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
