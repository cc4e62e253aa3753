import argparse
import builtins
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sentigen.bias import cross_annotate, fixture_accuracy_matrix, label_centroids
from sentigen.cli import build_parser, main

from conftest import TornWrite

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import quality  # noqa: E402
import same_bytes  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    train = dict(learning_rate=1e-3, batch_size=4, dropout_rate=0.0, max_steps=2,
                 num_speakers=8, validate_every_epochs=0, max_new_tokens=3)
    train.update(overrides.pop("train", {}))
    cfg = {"seed": 3,
           "train": train,
           "model": dict(model_dim=16, text_embed_dim=16, acoustic_dim=8, visual_dim=4,
                         layers_enc=1, layers_dec=1, heads=2, ffn_dim=32, max_len=96)}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main(["make-corpus", "--out", str(out), "--seed", "5"])
    assert code == 0
    return out


def test_make_corpus_is_deterministic(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    code, out, _ = run(capsys, "make-corpus", "--out", str(a), "--seed", "9")
    paths = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and Path(paths["corpus"]).exists()
    run(capsys, "make-corpus", "--out", str(b), "--seed", "9")
    run(capsys, "make-corpus", "--out", str(c), "--seed", "10")
    for name in ("corpus.jsonl", "registry.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "corpus.jsonl").read_bytes() != (c / "corpus.jsonl").read_bytes()
    sidecars = sorted(p.name for p in a.glob("*.saev"))
    assert sidecars and sidecars == sorted(p.name for p in b.glob("*.saev"))


def test_validate_reports_counts(cli_corpus, capsys):
    code, out, _ = run(capsys, "validate", "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"))
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["records"] == 24
    assert payload["datasets"] == {"sst-toy": 6, "absa-toy": 6, "meld-toy": 6, "mosi-toy": 6}
    assert "polarity-pool" in payload["registry"]


def test_missing_input_exits_2(cli_corpus, capsys):
    code, _, err = run(capsys, "validate", "--corpus", str(cli_corpus / "nope.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"))
    assert code == 2
    msg = json.loads(err.strip().splitlines()[-1])
    assert msg["error"] == "ConfigError"


def test_corrupt_corpus_exits_1(cli_corpus, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text((cli_corpus / "corpus.jsonl").read_text() + "{not json\n")
    for sidecar in cli_corpus.glob("*.saev"):
        (tmp_path / sidecar.name).write_bytes(sidecar.read_bytes())
    code, _, err = run(capsys, "validate", "--corpus", str(bad),
                       "--registry", str(cli_corpus / "registry.json"))
    assert code == 1
    msg = json.loads(err.strip().splitlines()[-1])
    assert msg["error"] == "DataError"
    assert "25" in msg["message"]  # failing line number


def test_unknown_config_key_exits_2(cli_corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trian": {}}))
    code, _, err = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


def test_config_naming_a_key_twice_exits_2(cli_corpus, tmp_path, capsys):
    """JSON would keep a repeated key's last value; the config file is
    refused instead."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1, "train": {}, "seed": 2}')
    code, out, err = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                         "--registry", str(cli_corpus / "registry.json"),
                         "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert code == 2 and out == "" and not (tmp_path / "out").exists()
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert "'seed' twice" in err


BAD_CONFIGS = {
    "batch_size-str": {"train": {"batch_size": "8"}},
    "train-list": {"train": [1, 2]},
    "loss_weights-number": {"train": {"loss_weights": 5}},
    "learning_rate-str": {"train": {"learning_rate": "x"}},
    "seed-str": {"seed": "x"},
    "seed-negative": {"seed": -1},
    "max_steps-negative": {"train": {"max_steps": -1}},
    "heads-str": {"model": {"heads": "4"}},
    "model_dim-0": {"model": {"model_dim": 0}},
    "ffn_dim-negative": {"model": {"ffn_dim": -1}},
    "epochs-negative": {"train": {"epochs": -1}},
    "num_speakers-negative": {"train": {"num_speakers": -1}},
    "layers_enc-negative": {"model": {"layers_enc": -1}},
    "layers_dec-negative": {"model": {"layers_dec": -1}},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_mistyped_config_value_exits_2(cli_corpus, tmp_path, capsys, case):
    """A config value of the wrong JSON type or out of range is a one-line
    ConfigError, never a traceback or a silent run."""
    path = write_config(tmp_path / "cfg.json")
    cfg = json.loads(path.read_text())
    for key, value in BAD_CONFIGS[case].items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                         "--registry", str(cli_corpus / "registry.json"),
                         "--out", str(tmp_path / "out"), "--config", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError"


NONFINITE_CONFIGS = {
    "learning_rate-nan": {"train": {"learning_rate": float("nan")}},
    "learning_rate-inf": {"train": {"learning_rate": float("inf")}},
    "learning_rate-0": {"train": {"learning_rate": 0.0}},
    "grad_clip-inf": {"train": {"grad_clip": float("inf")}},
    "grad_clip-negative": {"train": {"grad_clip": -1.0}},
    "loss_weights-nan": {"train": {"loss_weights": [1.0, float("nan"), 1.0, 1.0]}},
    "loss_weights-minus-inf": {"train": {"loss_weights": [1.0, 1.0, float("-inf"), 1.0]}},
    "dropout_rate-nan": {"model": {"dropout_rate": float("nan")}},
}


@pytest.mark.parametrize("case", sorted(NONFINITE_CONFIGS))
def test_nonfinite_config_value_writes_nothing(cli_corpus, tmp_path, capsys, case):
    """JSON's NaN and Infinity, in any float field or inside ``loss_weights``,
    a learning rate that is not positive and a negative clip norm are
    one-line ConfigErrors raised before the run writes anything."""
    cfg = json.loads(write_config(tmp_path / "cfg.json").read_text())
    for key, value in NONFINITE_CONFIGS[case].items():
        cfg[key] = {**cfg[key], **value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "pretrain1", "--corpus", str(cli_corpus / "corpus.jsonl"),
                         "--registry", str(cli_corpus / "registry.json"),
                         "--out", str(tmp_path / "out"), "--config", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("per_task", ["0", "-3"])
def test_make_corpus_rejects_per_task_below_one(tmp_path, capsys, per_task):
    code, out, err = run(capsys, "make-corpus", "--out", str(tmp_path / "c"),
                         "--per-task", per_task)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ConfigError" and "per_task" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_make_corpus_rejects_a_negative_seed(tmp_path, capsys, seed):
    code, out, err = run(capsys, "make-corpus", "--out", str(tmp_path / "c"), "--seed", seed)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError" and "seed" in err
    assert not (tmp_path / "c").exists()


@pytest.fixture(scope="module")
def finetuned(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ft")
    cfg = write_config(out / "cfg.json")
    code = main(["finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                 "--registry", str(cli_corpus / "registry.json"),
                 "--out", str(out / "run"), "--config", str(cfg)])
    assert code == 0
    return out / "run"


@pytest.mark.parametrize("cut", ["short", "mistyped", "validation"])
def test_resume_refuses_a_log_cut_short_of_its_checkpoint(cli_corpus, tmp_path, capsys, cut):
    """A resume into a directory whose ``metrics.jsonl`` ends before the
    checkpoint's step, cut back to step 1 or with its step-2 line's step a
    string, exits 2 with one ConfigError line and changes no file: appending
    from step 3 would leave a log with a gap. So does one whose
    ``val_metrics.jsonl``, with validation after each two-step epoch, is
    emptied of its step-2 line."""
    out = tmp_path / "run"
    train = {"max_steps": 4, "checkpoint_every": 2}
    if cut == "validation":
        train.update(validate_every_epochs=1, batch_size=12)  # 24 records
    argv = ["finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
            "--registry", str(cli_corpus / "registry.json"), "--out", str(out),
            "--config", str(write_config(tmp_path / "cfg.json", train=train))]
    assert run(capsys, *argv)[0] == 0
    log = out / ("val_metrics.jsonl" if cut == "validation" else "metrics.jsonl")
    lines = log.read_text().splitlines(keepends=True)
    message = f"{log}: log ends at step 1, not at its checkpoint's step 2"
    if cut == "short":
        log.write_text(lines[0])
    elif cut == "mistyped":
        log.write_text(lines[0] + lines[1].replace('"step": 2', '"step": "2"'))
    else:
        assert [json.loads(line)["step"] for line in lines] == [2, 4]
        log.write_text("")
        message = (f"{log}: log ends at step 0, not at step 2, the last validation due by its "
                   "checkpoint's step 2")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, stdout, err = run(capsys, *argv, "--resume", str(out / "checkpoint_step2.ckpt"))
    assert code == 2 and stdout == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ConfigError", "message": message}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_resume_into_another_out_runs_again_the_same(cli_corpus, tmp_path, capsys):
    """A resume into an ``--out`` with no log starts an empty one and logs
    the steps after its checkpoint. Run again into that directory, as after
    a crash before its first checkpoint, it keeps none of those lines, so it
    starts empty again and writes the same log and checkpoint."""
    argv = ["finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
            "--registry", str(cli_corpus / "registry.json"),
            "--config", str(write_config(tmp_path / "cfg.json",
                                         train={"max_steps": 4, "checkpoint_every": 2}))]
    assert run(capsys, *argv, "--out", str(tmp_path / "run"))[0] == 0
    resumed = tmp_path / "resumed"
    again = [*argv, "--out", str(resumed), "--resume", str(tmp_path / "run" / "checkpoint_step2.ckpt")]
    assert run(capsys, *again)[0] == 0
    first = {name: (resumed / name).read_bytes() for name in ("metrics.jsonl", "checkpoint.ckpt")}
    assert [json.loads(l)["step"] for l in first["metrics.jsonl"].splitlines()] == [3, 4]
    assert run(capsys, *again)[0] == 0
    assert {name: (resumed / name).read_bytes() for name in first} == first


def test_finetune_writes_manifest_and_checkpoint(finetuned, capsys):
    assert (finetuned / "checkpoint.ckpt").exists()
    assert (finetuned / "metrics.jsonl").exists()
    manifest = json.loads((finetuned / "manifest.json").read_text())
    assert manifest["command"] == "finetune"
    assert manifest["seed"] == 3
    assert len(manifest["config_hash"]) == 64
    assert manifest["code_version"]


def test_config_hash_tracks_effective_config(cli_corpus, finetuned, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code, _, _ = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                     "--registry", str(cli_corpus / "registry.json"),
                     "--out", str(tmp_path / "same"), "--config", str(cfg))
    assert code == 0
    base = json.loads((finetuned / "manifest.json").read_text())["config_hash"]
    same = json.loads((tmp_path / "same" / "manifest.json").read_text())["config_hash"]
    assert same == base
    code, _, _ = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                     "--registry", str(cli_corpus / "registry.json"),
                     "--out", str(tmp_path / "seeded"), "--config", str(cfg), "--seed", "8")
    seeded = json.loads((tmp_path / "seeded" / "manifest.json").read_text())["config_hash"]
    assert seeded != base


def test_config_hash_tracks_checkpoint_model(cli_corpus, finetuned, tmp_path, capsys):
    """A run from ``--init`` hashes the checkpoint's model config, so the
    config file's ``model`` section, which the run ignores, does not change
    the hash."""
    with_model = write_config(tmp_path / "with.json")
    cfg = json.loads(with_model.read_text())
    del cfg["model"]
    without_model = tmp_path / "without.json"
    without_model.write_text(json.dumps(cfg))
    hashes = []
    for name, path in (("with", with_model), ("without", without_model)):
        code, _, _ = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                         "--registry", str(cli_corpus / "registry.json"),
                         "--out", str(tmp_path / name), "--config", str(path),
                         "--init", str(finetuned / "checkpoint.ckpt"))
        assert code == 0
        hashes.append(json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]
    assert (tmp_path / "with" / "checkpoint.ckpt").read_bytes() == \
        (tmp_path / "without" / "checkpoint.ckpt").read_bytes()


def test_pretrain_stages_run(cli_corpus, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code, out, _ = run(capsys, "pretrain1", "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--out", str(tmp_path / "s1"), "--config", str(cfg))
    assert code == 0
    ck1 = json.loads(out.strip().splitlines()[-1])["checkpoint"]
    lines = [json.loads(l) for l in (tmp_path / "s1" / "metrics.jsonl").read_text().splitlines()]
    assert lines and all(l["stage"] == "pretrain1" and l["mcm"] > 0 for l in lines)
    code, out, _ = run(capsys, "pretrain2", "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--out", str(tmp_path / "s2"), "--config", str(cfg), "--init", ck1)
    assert code == 0
    lines = [json.loads(l) for l in (tmp_path / "s2" / "metrics.jsonl").read_text().splitlines()]
    assert lines and all(l["cep"] > 0 for l in lines)


def test_eval_prints_table_and_json(cli_corpus, finetuned, tmp_path, capsys):
    code, out, _ = run(capsys, "eval", "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                       "--out", str(tmp_path / "ev"), "--max-new", "3")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert set(payload) == {"sst-toy", "absa-toy", "meld-toy", "mosi-toy"}
    assert set(payload["mosi-toy"]) >= {"mae", "acc7", "acc2", "fallback_rate", "samples"}
    table = out.strip().splitlines()[:-1]
    assert any("sst-toy" in line for line in table)  # aligned table above the JSON line
    assert "wa" in table[0] and "mae" in table[0]
    on_disk = json.loads((tmp_path / "ev" / "eval.json").read_text())
    assert on_disk == payload


@pytest.mark.parametrize("max_new", ["0", "-1"])
def test_eval_max_new_below_one_exits_2_before_reading(tmp_path, capsys, max_new):
    """``--max-new`` below 1 is a ConfigError naming the flag, raised before
    the corpus or the checkpoint is read: neither exists here."""
    code, out, err = run(capsys, "eval", "--corpus", str(tmp_path / "none.jsonl"),
                         "--registry", str(tmp_path / "none.json"),
                         "--checkpoint", str(tmp_path / "none.ckpt"), "--max-new", max_new)
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ConfigError" and "--max-new" in msg["message"]


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_decode_budget_past_max_len_exits_2_before_writing(cli_corpus, finetuned, tmp_path, capsys,
                                                           command):
    """A decode budget past the model's ``max_len`` of 96, ``eval
    --max-new`` or a validating fine-tune's ``max_new_tokens``, is a
    one-line ConfigError raised once the model is known and before the
    command's first write, so ``--out`` stays absent. A budget of 96
    still decodes."""
    corpus = cli_corpus / "corpus.jsonl"
    data = ["--corpus", str(corpus), "--registry", str(cli_corpus / "registry.json")]
    for budget in (97, 96):
        out_dir = tmp_path / f"out{budget}"
        if command == "eval":
            argv = [*data, "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                    "--max-new", str(budget)]
        else:  # one step, one batch of every record, so it validates at step 1
            train = {"max_new_tokens": budget, "validate_every_epochs": 1, "max_steps": 1,
                     "batch_size": len(corpus.read_text().splitlines())}
            argv = [*data, "--config", str(write_config(tmp_path / "cfg.json", train=train)),
                    "--val-corpus", str(corpus)]
        code, out, err = run(capsys, command, *argv, "--out", str(out_dir))
        if budget == 97:
            assert code == 2 and out == "" and len(err.splitlines()) == 1
            msg = json.loads(err)
            assert msg["error"] == "ConfigError" and "exceeds the model's max_len 96" in msg["message"]
            assert not out_dir.exists()
        else:
            assert code == 0  # and it decoded: eval's results, or the validation at step 1
            assert (out_dir / ("eval.json" if command == "eval" else "val_metrics.jsonl")).read_text()


def test_eval_checkpoint_without_meta_exits_2(cli_corpus, finetuned, tmp_path, capsys):
    from sentigen.model import load_checkpoint, save_checkpoint
    config, arrays, _ = load_checkpoint(finetuned / "checkpoint.ckpt")
    save_checkpoint(tmp_path / "bare.ckpt", config, arrays, meta={})
    for ck in (tmp_path / "bare.ckpt", tmp_path / "absent.ckpt"):
        code, _, err = run(capsys, "eval", "--corpus", str(cli_corpus / "corpus.jsonl"),
                           "--registry", str(cli_corpus / "registry.json"),
                           "--checkpoint", str(ck))
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize("command", ["eval", "export-embeddings", "finetune"])
@pytest.mark.parametrize("fault", ["missing", "unknown"])
def test_checkpoint_parameter_table_mismatch_exits_2(cli_corpus, finetuned, tmp_path, capsys,
                                                     command, fault):
    """A checkpoint whose CRC holds but whose ``param/*`` arrays miss one of
    the config's parameters, or carry one it does not have, is a one-line
    ConfigError naming the file, raised before ``--out`` is written."""
    from sentigen.model import load_checkpoint, save_checkpoint
    config, arrays, meta = load_checkpoint(finetuned / "checkpoint.ckpt")
    if fault == "missing":
        del arrays["param/dec0_ln1_g"]
    else:
        arrays["param/bogus"] = arrays["param/dec0_ln1_g"]
    ck = tmp_path / "bad.ckpt"
    save_checkpoint(ck, config, arrays, meta=meta)
    argv = [command, "--corpus", str(cli_corpus / "corpus.jsonl"),
            "--registry", str(cli_corpus / "registry.json"), "--out", str(tmp_path / "out")]
    argv += (["--init", str(ck), "--config", str(write_config(tmp_path / "cfg.json"))]
             if command == "finetune" else ["--checkpoint", str(ck)])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "ConfigError" and str(ck) in msg["message"]
    assert f"{fault} parameter" in msg["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, fault", [("--init", "vocab_size"), ("--init", "num_datasets"),
                                         ("--resume", "vocab_size"), ("--resume", "num_datasets"),
                                         ("--resume", "adam_m"), ("--resume", "adam_v"),
                                         ("eval", "param/type_emb"), ("--init", "param/type_emb"),
                                         ("--resume", "param/type_emb"),
                                         ("--resume", "adam_m/type_emb"),
                                         ("--resume", "adam_v/type_emb")])
def test_checkpoint_state_mismatch_exits_2(cli_corpus, finetuned, tmp_path, capsys, flag, fault):
    """A checkpoint whose CRC holds but whose model config disagrees with
    its vocabulary or the registry's size, read through ``--init`` or
    ``--resume``, or whose Adam moment for a parameter is missing or
    misshapen, read through ``--resume``, or whose parameter or moment is
    stored as int64 (the entry named as the fault), read through ``eval``,
    ``--init`` or ``--resume``, is a one-line ConfigError naming the fault,
    raised before ``--out`` is written."""
    from dataclasses import replace
    from sentigen.model import load_checkpoint, save_checkpoint
    config, arrays, meta = load_checkpoint(finetuned / "checkpoint.ckpt")
    if fault == "adam_m":
        del arrays["adam_m/dec0_ln1_g"]
    elif fault == "adam_v":
        arrays["adam_v/dec0_ln1_g"] = arrays["adam_v/dec0_ln1_g"][1:]
    elif "/" in fault:
        arrays[fault] = arrays[fault].astype(np.int64)
    else:
        config = replace(config, **{fault: getattr(config, fault) + 1})
    ck = tmp_path / "bad.ckpt"
    save_checkpoint(ck, config, arrays, meta=meta)
    inputs = ["--corpus", str(cli_corpus / "corpus.jsonl"),
              "--registry", str(cli_corpus / "registry.json"), "--out", str(tmp_path / "out")]
    if flag == "eval":
        argv = ["eval", *inputs, "--checkpoint", str(ck)]
    else:
        argv = ["finetune", *inputs, "--config", str(write_config(tmp_path / "cfg.json")),
                flag, str(ck)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "ConfigError" and fault in msg["message"]
    assert not (tmp_path / "out").exists()


def test_eval_checks_registry_feature_widths(cli_corpus, finetuned, tmp_path, capsys):
    """The checkpoint's acoustic_dim (8) must match the registry's, even on a
    corpus with no acoustic features."""
    registry = json.loads((cli_corpus / "registry.json").read_text())
    for spec in registry.values():
        if spec["acoustic_dim"] is not None:
            spec["acoustic_dim"] = 5
    (tmp_path / "registry.json").write_text(json.dumps(registry))
    text_only = [line for line in (cli_corpus / "corpus.jsonl").read_text().splitlines()
                 if json.loads(line)["dataset_id"] == "sst-toy"]
    (tmp_path / "corpus.jsonl").write_text("\n".join(text_only) + "\n")
    code, _, err = run(capsys, "eval", "--corpus", str(tmp_path / "corpus.jsonl"),
                       "--registry", str(tmp_path / "registry.json"),
                       "--checkpoint", str(finetuned / "checkpoint.ckpt"))
    assert code == 2
    msg = json.loads(err.strip().splitlines()[-1])
    assert msg["error"] == "ConfigError" and "acoustic_dim" in msg["message"]


@pytest.mark.parametrize("fault", ["rotated", "renamed", "vocab_datasets=-1", "vocab_datasets=0",
                                   "vocab_datasets=1", "vocab_datasets=3",
                                   "vocab_datasets=1000000", "vocab_speakers=7",
                                   "vocab_speakers=1000000"])
def test_checkpoint_for_another_registry_or_vocabulary_block_exits_2(cli_corpus, finetuned,
                                                                     tmp_path, capsys, fault):
    """A checkpoint loads only against the registry it was trained with, in
    its order, and only with the dataset and speaker counts its vocabulary
    holds: ``eval`` against the same datasets rotated or one renamed (in
    the registry and the corpus), or from a checkpoint whose
    ``vocab_datasets`` or ``vocab_speakers`` (5 and 8 here) is any other
    count, is a one-line ConfigError, raised before ``--out`` is written."""
    import shutil
    from sentigen.model import load_checkpoint, save_checkpoint
    inputs, ck = tmp_path / "inputs", finetuned / "checkpoint.ckpt"
    shutil.copytree(cli_corpus, inputs)
    if fault.startswith("vocab_"):
        field, count = fault.split("=")
        config, arrays, meta = load_checkpoint(ck)
        ck = tmp_path / "bad.ckpt"
        save_checkpoint(ck, config, arrays, meta={**meta, field: int(count)})
    elif fault == "rotated":
        registry = json.loads((inputs / "registry.json").read_text())
        ids = list(registry)
        (inputs / "registry.json").write_text(json.dumps({d: registry[d] for d in ids[1:] + ids[:1]}))
    else:
        for name in ("registry.json", "corpus.jsonl"):
            text = (inputs / name).read_text()
            (inputs / name).write_text(text.replace('"sst-toy"', '"sst-renamed"'))
    code, out, err = run(capsys, "eval", "--corpus", str(inputs / "corpus.jsonl"),
                         "--registry", str(inputs / "registry.json"), "--checkpoint", str(ck),
                         "--max-new", "2", "--out", str(tmp_path / "out"))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "ConfigError"
    assert ("vocabulary" in msg["message"]) and str(ck) in msg["message"]
    assert not (tmp_path / "out").exists()


def test_eval_empty_corpus_is_data_error(cli_corpus, finetuned, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run(capsys, "eval", "--corpus", str(empty),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--checkpoint", str(finetuned / "checkpoint.ckpt"))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "DataError"


def test_export_embeddings_empty_corpus_is_data_error(cli_corpus, finetuned, tmp_path, capsys):
    """As ``eval``: no records is a DataError, raised before any output is written."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run(capsys, "export-embeddings", "--corpus", str(empty),
                         "--registry", str(cli_corpus / "registry.json"),
                         "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "emb"))
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "DataError"
    assert not (tmp_path / "emb").exists()


def test_export_embeddings_schema(cli_corpus, finetuned, tmp_path, capsys):
    code, out, _ = run(capsys, "export-embeddings",
                       "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                       "--out", str(tmp_path / "emb"))
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "emb" / "embeddings.jsonl").read_text().splitlines()]
    assert len(rows) == 24
    assert all(set(r) == {"dataset_id", "sample_id", "label", "vector"} for r in rows)
    assert all(len(r["vector"]) == 16 for r in rows)


@pytest.mark.parametrize("case", ["pretrain1", "pretrain2", "finetune", "export-embeddings",
                                  "pretrain1-long", "pretrain2-long", "finetune-long",
                                  "finetune-val-long", "pretrain1-pair-long"])
def test_failed_plan_writes_nothing(cli_corpus, finetuned, tmp_path, capsys, case):
    """A command whose checks fail after its inputs are read leaves its
    ``--out`` absent: a training run whose ``model`` section does not fit
    the registry, an export or a training run (``-long``) whose corpus
    holds one record that cannot fit ``max_len`` 96, a fine-tune that
    validates every epoch on such a ``--val-corpus`` (``-val-long``), and a
    stage one whose mosi records each fit alone but no two of them together
    (``-pair-long``). A training run's check is its prompt tables and stage
    one's widest pairs, built before its first write."""
    command, long, _ = case.partition("-long")
    command, val, _ = command.partition("-val")
    command, pair, _ = command.partition("-pair")
    argv = ["--registry", str(cli_corpus / "registry.json"), "--out", str(tmp_path / "out")]
    if long or command == "export-embeddings":
        rows = [json.loads(line) for line in (cli_corpus / "corpus.jsonl").read_text().splitlines()]
        mosi = [row for row in rows if row["dataset_id"] == "mosi-toy"]
        for row in mosi if pair else mosi[:1]:
            row["audio"] = [[0.0] * 8] * (60 if pair else 200)
        (tmp_path / "long.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        for sidecar in cli_corpus.glob("*.saev"):
            (tmp_path / sidecar.name).write_bytes(sidecar.read_bytes())
        argv += ["--corpus", str(tmp_path / "long.jsonl")]
        if val:
            argv[-2:] = ["--corpus", str(cli_corpus / "corpus.jsonl"),
                         "--val-corpus", str(tmp_path / "long.jsonl")]
        # a two-step epoch: the parent's run would validate at its last step
        train = {"validate_every_epochs": 1, "batch_size": 12} if val else {}
        argv += (["--config", str(write_config(tmp_path / "cfg.json", train=train))] if long
                 else ["--checkpoint", str(finetuned / "checkpoint.ckpt")])
        error = "ContractError"
    else:
        cfg = write_config(tmp_path / "cfg.json", model={"acoustic_dim": 64})
        argv += ["--corpus", str(cli_corpus / "corpus.jsonl"), "--config", str(cfg)]
        error = "ConfigError"
    code, out, err = run(capsys, command, *argv)
    assert code == (2 if error == "ConfigError" else 1) and out == ""
    assert json.loads(err)["error"] == error
    assert not (tmp_path / "out").exists()


def test_full_disk_while_logging_is_one_line_error(cli_corpus, tmp_path, capsys, monkeypatch):
    """A log append that fails as a full disk is a one-line ConfigError
    naming the log, not a raw OSError."""
    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return TornWrite(fh, 50) if mode == "a" else fh

    monkeypatch.setattr(builtins, "open", torn_open)
    code, out, err = run(capsys, "finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                         "--registry", str(cli_corpus / "registry.json"),
                         "--config", str(write_config(tmp_path / "cfg.json")),
                         "--out", str(tmp_path / "out"))
    monkeypatch.undo()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "ConfigError"
    assert msg["message"] == (f"cannot write {tmp_path / 'out' / 'metrics.jsonl'} "
                              "(injected: no space left on device)")


@pytest.mark.parametrize("command", ["eval", "bias-report"])
def test_failed_rewrite_keeps_the_old_output(cli_corpus, finetuned, tmp_path, capsys, monkeypatch,
                                             command):
    """A rerun into the same ``--out`` whose write of the output file is
    torn after 10 bytes is a one-line ConfigError carrying the write's
    error, and leaves the old file whole with no temporary file beside it."""
    out = tmp_path / "out"
    if command == "eval":
        name = "eval.json"
        argv = ["eval", "--corpus", str(cli_corpus / "corpus.jsonl"),
                "--registry", str(cli_corpus / "registry.json"),
                "--checkpoint", str(finetuned / "checkpoint.ckpt"), "--max-new", "3"]
    else:
        name, argv = "bias_report.json", ["bias-report"]
    argv += ["--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    old = (out / name).read_bytes()
    names = sorted(p.name for p in out.iterdir())

    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writes = "w" in mode or "x" in mode
        return TornWrite(fh, 10) if writes and Path(file).name.startswith(name) else fh

    monkeypatch.setattr(builtins, "open", torn_open)
    code, stdout, err = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 2 and stdout == ""
    msg = json.loads(err)
    assert msg["error"] == "ConfigError" and "injected" in msg["message"]
    assert (out / name).read_bytes() == old
    assert sorted(p.name for p in out.iterdir()) == names


def test_bias_report_default_fixture(capsys):
    code, out, _ = run(capsys, "bias-report")
    assert code == 0
    assert "20.01" in out and "8.93" in out and "iemocap" in out


def test_bias_report_from_embeddings(cli_corpus, finetuned, tmp_path, capsys):
    run(capsys, "export-embeddings", "--corpus", str(cli_corpus / "corpus.jsonl"),
        "--registry", str(cli_corpus / "registry.json"),
        "--checkpoint", str(finetuned / "checkpoint.ckpt"), "--out", str(tmp_path / "emb"))
    code, out, _ = run(capsys, "bias-report",
                       "--embeddings", str(tmp_path / "emb" / "embeddings.jsonl"),
                       "--out", str(tmp_path / "rep"))
    assert code == 0
    saved = json.loads((tmp_path / "rep" / "bias_report.json").read_text())
    assert set(saved["accuracy"]["datasets"]) == {"sst-toy", "absa-toy", "meld-toy", "mosi-toy"}
    assert "bias_sub" in saved and "bias_ana" in saved


def test_bias_report_rejects_conflicting_sources(tmp_path, capsys):
    code, _, err = run(capsys, "bias-report", "--acc-matrix", "x.json",
                       "--embeddings", "y.jsonl")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


def jsonl(*rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


EMBEDDINGS = jsonl({"dataset_id": "a", "label": "x", "vector": [1.0]},
                   {"dataset_id": "b", "label": "x", "vector": [2.0]})


@pytest.mark.parametrize("files, error", [
    ({"embeddings": EMBEDDINGS + "{not json\n"}, "DataError"),
    ({"embeddings": "\n"}, "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "vector": [1.0]})}, "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "label": "x", "vector": ["one"]})},
     "DataError"),
    ({"embeddings": EMBEDDINGS, "correspondence": "{not json"}, "ConfigError"),
    ({"acc-matrix": "[1,2]"}, "DataError"),
    ({"acc-matrix": '{"datasets": ["a"], "accuracy_percent": [["high"]]}'}, "DataError"),
    ({"acc-matrix": '{"datasets": ["a", "b"], "accuracy_percent": [[1, 2], [3]]}'}, "DataError"),
    ({"embeddings": jsonl({"dataset_id": "a", "label": "x", "vector": [1.0]},
                          {"dataset_id": "b", "label": "x", "vector": [1.0, 2.0]})}, "ShapeError"),
    ({"embeddings": EMBEDDINGS.encode() + b'{"caf\xe9": 1}\n'}, "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": 3, "label": "x", "vector": [1.0]})},
     "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "label": None, "vector": [1.0]})},
     "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "label": "x", "vector": [[1.0]]})},
     "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "label": "x", "vector": []})},
     "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "label": "x", "vector": 1.0})},
     "DataError"),
    ({"embeddings": EMBEDDINGS + jsonl({"dataset_id": "a", "label": "x", "vector": [float("nan")]})},
     "DataError"),
    ({"embeddings": EMBEDDINGS + '{"dataset_id": "a", "label": "x", "label": "y", "vector": [1.0]}\n'},
     "DataError"),
    ({"correspondence": "{}"}, "ConfigError"),
    ({"acc-matrix": "[1,2]", "correspondence": "{}"}, "ConfigError"),
], ids=["embeddings-not-json", "embeddings-empty", "embeddings-no-label", "embeddings-text-vector",
        "correspondence-not-json", "acc-matrix-list", "acc-matrix-text-cell", "acc-matrix-ragged",
        "widths-1-and-2", "embeddings-not-utf8",
        "embeddings-number-id", "embeddings-null-label", "embeddings-nested-vector",
        "embeddings-empty-vector", "embeddings-scalar-vector", "embeddings-nan-vector",
        "embeddings-repeated-key", "correspondence-without-embeddings",
        "correspondence-with-acc-matrix"])
def test_bias_report_bad_input_is_one_line_error(tmp_path, capsys, files, error):
    """Each file holds text or raw bytes. Paths that cannot be read are rows
    of ``test_bad_input_file_is_one_line_config_error``."""
    argv = ["bias-report"]
    for flag, content in files.items():
        path = tmp_path / flag
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        argv += [f"--{flag}", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == (2 if error == "ConfigError" else 1)
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == error


def embedding_items(path):
    """{dataset_id: [(label, vector)]} of an embeddings file."""
    items = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        items.setdefault(row["dataset_id"], []).append((row["label"], np.asarray(row["vector"])))
    return items


def test_bias_report_scores_a_mapped_pair_with_its_correspondence(valid_inputs, tmp_path, capsys):
    """A valid correspondence file exits 0, and the pair it maps scores what
    ``cross_annotate`` gives with that map: the valid input's map, and one
    sending each source label onto a target label it is annotated with,
    which scores above the identity map."""
    items = embedding_items(valid_inputs["embeddings"])
    src, tgt = "sst-toy", "absa-toy"
    target = label_centroids([label for label, _ in items[tgt]], [vec for _, vec in items[tgt]])
    pseudo, identity = cross_annotate(items[src], target)
    annotated = {gold: got for (gold, _), got in zip(items[src], pseudo)}
    (tmp_path / "annotated.json").write_text(json.dumps({src: {tgt: annotated}}))
    for path in (valid_inputs["correspondence"], tmp_path / "annotated.json"):
        out = tmp_path / path.stem
        code, _, _ = run(capsys, "bias-report", "--embeddings", str(valid_inputs["embeddings"]),
                         "--correspondence", str(path), "--out", str(out))
        assert code == 0
        acc = json.loads((out / "bias_report.json").read_text())["accuracy"]
        row = acc["accuracy_percent"][acc["datasets"].index(src)]
        cmap = json.loads(path.read_text())[src][tgt]
        assert row[acc["datasets"].index(tgt)] == cross_annotate(items[src], target, cmap)[1]
    assert row[acc["datasets"].index(tgt)] > identity


@pytest.mark.parametrize("correspondence, names", [
    ({"sst-toy": {"absa-toy": ["negative"]}}, None),
    ({"sst-toy": {"absa-toy": {"negative": 1}}}, None),
    ({"nope": {"sst-toy": {"negative": "negative"}}}, ["nope"]),
    ({"sst-toy": {"absa-toy": {}, "nope": {}, "also-nope": {}}}, ["also-nope", "nope"]),
], ids=["list-for-a-label-map", "number-for-a-label", "unknown-source", "unknown-targets"])
def test_bias_report_bad_correspondence_is_one_config_error(valid_inputs, tmp_path, capsys,
                                                            correspondence, names):
    """Well-formed JSON of the wrong shape, or naming a dataset the
    embeddings lack, exits 2 with one ConfigError line; the unknown ids and
    the datasets the file holds are named."""
    path = tmp_path / "correspondence.json"
    path.write_text(json.dumps(correspondence))
    code, out, err = run(capsys, "bias-report", "--embeddings", str(valid_inputs["embeddings"]),
                         "--correspondence", str(path))
    lines = err.strip().splitlines()
    assert code == 2 and out == "" and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    if names is not None:
        held = list(embedding_items(valid_inputs["embeddings"]))
        assert str(names) in error["message"] and str(held) in error["message"]


# The file each input flag names when it is valid: a key of ``valid_inputs``.
INPUT_FILES = {
    **{(cmd, flag): kind for cmd in ("validate", "pretrain1", "pretrain2", "finetune", "eval",
                                     "export-embeddings")
       for flag, kind in (("--corpus", "corpus"), ("--registry", "registry"))},
    **{(cmd, "--config"): "config" for cmd in ("pretrain1", "pretrain2", "finetune")},
    ("pretrain1", "--resume"): "pretrain1-checkpoint",
    ("pretrain2", "--init"): "pretrain1-checkpoint",
    ("pretrain2", "--resume"): "pretrain2-checkpoint",
    ("finetune", "--init"): "finetune-checkpoint",
    ("finetune", "--resume"): "finetune-checkpoint",
    ("finetune", "--val-corpus"): "corpus",
    ("eval", "--checkpoint"): "finetune-checkpoint",
    ("export-embeddings", "--checkpoint"): "finetune-checkpoint",
    ("bias-report", "--acc-matrix"): "acc-matrix",
    ("bias-report", "--embeddings"): "embeddings",
    ("bias-report", "--correspondence"): "correspondence",
}
# String options that name no input file. ``--out`` is an output directory,
# covered by its own ``out-file`` and ``out-under-file`` rows.
NOT_INPUT_FILES = {"--out"}
# Kinds whose malformed content is a DataError; every other kind's is a ConfigError.
DATA_FILES = {"corpus", "acc-matrix", "embeddings"}
# A flag that needs another one beside it.
NEEDS = {"--correspondence": "--embeddings"}
CASES = ("missing", "dir", "empty", "not-utf8", "mutated")


def cli_options():
    """{subcommand: {option string: argparse action}}, walked from the parser."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {flag: action for action in sub._actions for flag in action.option_strings}
            for name, sub in commands.choices.items()}


def input_file_rows():
    """One row per case of every string option of every subcommand, so a
    new file flag without an INPUT_FILES entry fails its rows."""
    rows = {}
    for command, options in cli_options().items():
        for flag, action in options.items():
            if action.type is not None or action.nargs is not None:
                continue  # not string-valued
            if flag == "--out":
                for case in ("file", "under-file"):
                    rows[f"{command}-out-{case}"] = (command, flag, case)
            elif flag not in NOT_INPUT_FILES:
                for case in CASES:
                    rows[f"{command}-{flag[2:]}-{case}"] = (command, flag, case)
    return rows


INPUT_FILE_ROWS = input_file_rows()


@pytest.fixture(scope="module")
def valid_inputs(cli_corpus, finetuned, tmp_path_factory):
    """A valid file of each kind an input flag names."""
    out = tmp_path_factory.mktemp("valid_inputs")
    files = {"corpus": cli_corpus / "corpus.jsonl", "registry": cli_corpus / "registry.json",
             "config": write_config(out / "cfg.json"),
             "finetune-checkpoint": finetuned / "checkpoint.ckpt",
             "pretrain1-checkpoint": out / "s1" / "checkpoint.ckpt",
             "pretrain2-checkpoint": out / "s2" / "checkpoint.ckpt",
             "acc-matrix": out / "acc.json",
             "embeddings": out / "emb" / "embeddings.jsonl",
             "correspondence": out / "correspondence.json"}
    io = ["--corpus", str(files["corpus"]), "--registry", str(files["registry"])]
    assert main(["pretrain1", *io, "--config", str(files["config"]), "--out", str(out / "s1")]) == 0
    assert main(["pretrain2", *io, "--config", str(files["config"]), "--out", str(out / "s2"),
                 "--init", str(files["pretrain1-checkpoint"])]) == 0
    assert main(["export-embeddings", *io, "--checkpoint", str(files["finetune-checkpoint"]),
                 "--out", str(out / "emb")]) == 0
    files["acc-matrix"].write_text(json.dumps(fixture_accuracy_matrix().to_json()))
    files["correspondence"].write_text(json.dumps(
        {"sst-toy": {"absa-toy": {"negative": "negative", "positive": "positive"}}}))
    return files


def bad_file_bytes(valid, case):
    """The bytes of one ``case`` file made from the valid file's bytes, one
    variant per mutation."""
    if case == "empty":
        return [b""]
    if case == "not-utf8":
        at = valid.find(b'{"') + 2  # the first character of the first key
        return [valid[:at] + b"\xe9" + valid[at + 1:]]
    spots = zip((len(valid) // 4, len(valid) // 2, 3 * len(valid) // 4), (b'"', b"7", b"\xff"))
    return [valid[:i] + (b"{" if valid[i:i + 1] == byte else byte) + valid[i + 1:]
            for i, byte in spots]


@pytest.mark.parametrize("case", sorted(INPUT_FILE_ROWS))
def test_bad_input_file_is_one_line_config_error(cli_corpus, valid_inputs, tmp_path, capsys, case):
    """Every input file of every subcommand, missing, a directory, empty,
    not UTF-8 or byte-mutated, and an existing file where the output
    directory, or one of its parents, belongs. A path that cannot be read or
    an ``--out`` that cannot be made exits 2 with one ConfigError JSON line,
    and nothing is written. Not
    UTF-8 is one line of the file kind's error: a DataError for data files, a
    ConfigError for the rest. Any other case exits 0, or 1 or 2 with one
    JSON error line and nothing on stdout; never a traceback."""
    command, flag, kind = INPUT_FILE_ROWS[case]
    options = cli_options()[command]
    if flag != "--out":
        assert (command, flag) in INPUT_FILES, \
            f"{command} {flag}: add the file it names to INPUT_FILES, or the flag to NOT_INPUT_FILES"
    # the command's required flags, and its config (the default recipe trains for 40
    # epochs), each naming a valid file
    argv = {f: str(valid_inputs[INPUT_FILES[command, f]]) for f, action in options.items()
            if (action.required or f == "--config") and (command, f) in INPUT_FILES}
    if flag in NEEDS:
        argv[NEEDS[flag]] = str(valid_inputs[INPUT_FILES[command, NEEDS[flag]]])
    if "--out" in options:
        argv["--out"] = str(tmp_path / "run")
    for sidecar in cli_corpus.glob("*.saev"):  # a corpus written here finds its sidecars
        (tmp_path / sidecar.name).write_bytes(sidecar.read_bytes())
    bad = tmp_path / "bad-input"
    if kind == "dir":
        bad.mkdir()
    if kind in ("missing", "dir"):
        variants = [None]
    elif kind in ("file", "under-file"):
        variants = [b"x"]
    else:
        variants = bad_file_bytes(valid_inputs[INPUT_FILES[command, flag]].read_bytes(), kind)
    argv[flag] = str(bad / "sub" if kind == "under-file" else bad)
    for content in variants:
        if content is not None:
            bad.write_bytes(content)
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, command, *[x for kv in argv.items() for x in kv])
        if code == 0 and kind in ("empty", "mutated"):
            continue
        assert code in (1, 2) and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert (error == "ConfigError") == (code == 2)
        if kind in ("empty", "mutated"):
            continue
        data = kind == "not-utf8" and INPUT_FILES[command, flag] in DATA_FILES
        assert error == ("DataError" if data else "ConfigError")
        assert sorted(tmp_path.iterdir()) == before


def test_quality_check_of_a_tree_against_itself_prints_zero_differences(capsys):
    """``scripts/quality.py . . --seeds 2`` runs the d=16 recipe twice per
    seed, each in a subprocess, and every figure it prints, the stages'
    losses and eval's metrics, differs by exactly zero and passes."""
    assert quality.main([str(ROOT), str(ROOT), "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:-1]]
    assert {row[0].split("/")[0] for row in rows} == {"s1", "s2", "ft", "eval"}
    assert all(row[2] == "+0" and row[-1] == "yes" for row in rows)
    assert lines[-1] == f"quality: 0 of {len(rows)} figures differ, 0 outside the parent's spread"


def test_quality_check_fails_a_figure_outside_the_parents_spread(monkeypatch, capsys):
    """A figure passes when its mean paired difference lies within the
    half-width of the parent's bootstrap interval, which is half the
    parent's range for two seeds and zero for equal ones; a figure outside
    it, or one missing from a run, fails the check. A figure that is zero
    in every run is left out."""
    assert quality.half_width([3.0, 3.0, 3.0]) == 0.0
    assert quality.half_width([1.0, 2.0]) == pytest.approx(0.5)
    parent = [{"s1/total": 1.0, "eval/x/wa": 0.5, "s1/cep": 0.0},
              {"s1/total": 2.0, "eval/x/wa": 0.5, "s1/cep": 0.0}]

    def moved(name, by):
        return [{**run, name: run[name] + by} for run in parent]

    cases = {"inside": (moved("s1/total", 0.4), 0), "outside": (moved("s1/total", 0.6), 1),
             "no spread": (moved("eval/x/wa", 1e-9), 1),
             "missing": ([{"eval/x/wa": 0.5, "s1/cep": 0.0}] * 2, 1)}
    monkeypatch.setattr(quality, "parse_args", lambda argv: argparse.Namespace(
        parent="parent", change="change", seeds=2))
    for name, (change, code) in cases.items():
        monkeypatch.setattr(quality, "run_recipe",
                            lambda tree, seed, out: (parent if tree == "parent" else change)[seed])
        assert quality.main([]) == code, name
        out = capsys.readouterr().out
        assert "s1/cep" not in out
        assert out.splitlines()[-1] == (f"quality: 1 of 2 figures differ, {code} outside the "
                                        f"parent's spread"), name


def test_same_bytes_fails_a_change_that_changes_notes_declare_nowhere():
    """``scripts/same_bytes.py`` lists each path whose digest changed, was
    added or was removed, and passes a tree whose files all match. A change
    passes only when the change tree's CHANGES.md has a line starting
    ``Bytes change:`` or ``- Bytes change:`` that the base's lacks: a line
    the base already has, or one that names the words elsewhere, does not
    declare it."""
    base = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "9", "d": "4"}
    assert same_bytes.changed_files(base, change) == ["changed b", "removed c", "added d"]
    assert same_bytes.changed_files(base, dict(base)) == []
    old = "- did a thing\n- Bytes change: s1 differs\n"
    for notes, code in {old: 1, old + "- next thing\n": 1,
                        old + "FOUND: a Bytes change: here\n": 1,
                        old + "  - Bytes change: indented\n": 1,
                        old + "- Bytes change: s1 and s2 differ\n": 0,
                        "Bytes change: only this\n": 0}.items():
        assert same_bytes.verdict(["changed b"], old, notes) == code, notes
        assert same_bytes.verdict([], old, notes) == 0
