import json
from pathlib import Path

import pytest

from sentigen.cli import main


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


BAD_CONFIGS = {
    "batch_size-str": {"train": {"batch_size": "8"}},
    "train-list": {"train": [1, 2]},
    "loss_weights-number": {"train": {"loss_weights": 5}},
    "learning_rate-str": {"train": {"learning_rate": "x"}},
    "seed-str": {"seed": "x"},
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


@pytest.fixture(scope="module")
def finetuned(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ft")
    cfg = write_config(out / "cfg.json")
    code = main(["finetune", "--corpus", str(cli_corpus / "corpus.jsonl"),
                 "--registry", str(cli_corpus / "registry.json"),
                 "--out", str(out / "run"), "--config", str(cfg)])
    assert code == 0
    return out / "run"


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
    assert same == base  # corpus/registry paths match: same temp root? no -- recompute
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
    lines = [json.loads(l) for l in open(tmp_path / "s1" / "metrics.jsonl")]
    assert lines and all(l["stage"] == "pretrain1" and l["mcm"] > 0 for l in lines)
    code, out, _ = run(capsys, "pretrain2", "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--out", str(tmp_path / "s2"), "--config", str(cfg), "--init", ck1)
    assert code == 0
    lines = [json.loads(l) for l in open(tmp_path / "s2" / "metrics.jsonl")]
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


def test_eval_empty_corpus_is_data_error(cli_corpus, finetuned, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run(capsys, "eval", "--corpus", str(empty),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--checkpoint", str(finetuned / "checkpoint.ckpt"))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "DataError"


def test_export_embeddings_schema(cli_corpus, finetuned, tmp_path, capsys):
    code, out, _ = run(capsys, "export-embeddings",
                       "--corpus", str(cli_corpus / "corpus.jsonl"),
                       "--registry", str(cli_corpus / "registry.json"),
                       "--checkpoint", str(finetuned / "checkpoint.ckpt"),
                       "--out", str(tmp_path / "emb"))
    assert code == 0
    rows = [json.loads(l) for l in open(tmp_path / "emb" / "embeddings.jsonl")]
    assert len(rows) == 24
    assert all(set(r) == {"dataset_id", "sample_id", "label", "vector"} for r in rows)
    assert all(len(r["vector"]) == 16 for r in rows)


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
    ({"embeddings": jsonl({"dataset_id": "a", "label": "x", "vector": [1.0]},
                          {"dataset_id": "b", "label": "x", "vector": [1.0, 2.0]})}, "ShapeError"),
], ids=["embeddings-not-json", "embeddings-empty", "embeddings-no-label", "embeddings-text-vector",
        "correspondence-not-json", "acc-matrix-list", "widths-1-and-2"])
def test_bias_report_bad_input_is_one_line_error(tmp_path, capsys, files, error):
    argv = ["bias-report"]
    for flag, text in files.items():
        path = tmp_path / flag
        path.write_text(text)
        argv += [f"--{flag}", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == (2 if error == "ConfigError" else 1)
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == error
