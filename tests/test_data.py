import ast
import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sentigen
from sentigen.data import (Polarity, Registry, RunDir, TaskType, load_corpus,
                           read_feature_sidecar, render_scalar_label, to_polarity,
                           write_feature_sidecar, write_json, write_file_atomic, write_jsonl)
from sentigen.errors import ConfigError, ContractError, DataError, SentigenError

from conftest import serialize_corpus


def mini_registry():
    return Registry.from_json({
        "rev": {"task_type": "ca", "answer_set": ["negative", "positive"],
                "acoustic_dim": None, "visual_dim": None, "metrics": ["wa"]},
        "conv": {"task_type": "erc", "answer_set": ["anger", "joy", "neutral"],
                 "acoustic_dim": 3, "visual_dim": None, "metrics": ["wf1"]},
        "score": {"task_type": "msa", "answer_set": {"kind": "scalar", "min": -3.0, "max": 3.0},
                  "acoustic_dim": 3, "visual_dim": 2, "metrics": ["mae", "acc7", "acc2"]},
    })


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")


def full_row(**kw):
    row = {"task_type": "ca", "dataset_id": "rev", "text": "fine film",
           "audio": None, "image": None, "context": None,
           "speaker_id": None, "utterance_index": None, "label": "positive"}
    row.update(kw)
    return row


# ---------------------------------------------------------------------------
# registry


def test_registry_declaration_order_is_index():
    reg = mini_registry()
    assert reg.dataset_ids == ["rev", "conv", "score"]
    assert [reg.index(d) for d in reg.dataset_ids] == [0, 1, 2]
    assert reg.spec("conv").task_type is TaskType.ERC
    with pytest.raises(ConfigError):
        reg.spec("nope")


def test_registry_roundtrip_and_validation(tmp_path):
    reg = mini_registry()
    path = tmp_path / "registry.json"
    reg.save(path)
    again = Registry.load(path)
    assert again.to_json() == reg.to_json()

    bad = reg.to_json()
    bad["rev"]["task_type"] = "sentiment"
    with pytest.raises(ConfigError):
        Registry.from_json(bad)
    bad = reg.to_json()
    del bad["rev"]["metrics"]
    with pytest.raises(ConfigError):
        Registry.from_json(bad)
    bad = reg.to_json()
    bad["rev"]["answer_set"] = {"kind": "scalar", "min": -3.0, "max": 3.0}
    with pytest.raises(ConfigError):  # scalar answers only for msa
        Registry.from_json(bad)
    bad = reg.to_json()
    bad["conv"]["metrics"] = ["f2"]
    with pytest.raises(ConfigError):
        Registry.from_json(bad)
    # answer sets are type-checked, never coerced: a bool is no number
    for dataset_id, answer_set in [
            ("score", {"kind": "scalar", "min": "a"}),
            ("score", {"kind": "scalar", "min": [1]}),
            ("score", {"kind": "scalar", "min": "1.5"}),
            ("score", {"kind": "scalar", "min": True}),
            ("score", {"kind": "scalar", "max": None}),
            ("score", {"kind": "scalar", "max": float("inf")}),
            ("score", {"kind": "scalar", "min": 3, "max": -3}),
            ("score", {"kind": "scalar", "min": 1.0, "max": 1.0}),
            ("conv", [1, None]),
            ("conv", ["anger", 2]),
            ("conv", []),
            ("conv", "anger"),
            ("score", {"kind": "bins"}),
            ("score", None)]:
        bad = reg.to_json()
        bad[dataset_id]["answer_set"] = answer_set
        with pytest.raises(ConfigError, match=dataset_id) as err:
            Registry.from_json(bad)
        assert "\n" not in str(err.value)
    ok = reg.to_json()
    ok["score"]["answer_set"] = {"kind": "scalar", "min": -2, "max": 2.5}
    assert Registry.from_json(ok).spec("score").answer.to_json() == \
        {"kind": "scalar", "min": -2.0, "max": 2.5}


@pytest.mark.parametrize("field", ["acoustic_dim", "visual_dim"])
@pytest.mark.parametrize("value", [True, False, 2.0, "3", 0, -1])
def test_registry_dims_must_be_positive_ints(field, value):
    """A bool is no int, as in config files: ``true`` is not a width of 1."""
    bad = mini_registry().to_json()
    bad["score"][field] = value
    with pytest.raises(ConfigError, match=field):
        Registry.from_json(bad)


# ---------------------------------------------------------------------------
# corpus loading


def test_load_corpus_happy_path(tmp_path):
    reg = mini_registry()
    path = tmp_path / "c.jsonl"
    write_lines(path, [
        full_row(),
        full_row(task_type="erc", dataset_id="conv", text="so angry", label="anger",
                 context=[["s0", "hello there"]], speaker_id="s1", utterance_index=1,
                 audio=[[0.1, 0.2, 0.3]]),
        full_row(task_type="msa", dataset_id="score", text="meh", label=-1.5,
                 audio=[[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], image=[[1.0, 2.0]]),
        full_row(task_type="msa", dataset_id="score", text="flat", label=0.5, image=[1.0, 2.0]),
    ])
    records = load_corpus(path, reg)
    assert len(records) == 4
    assert np.array_equal(records[3].image, [[1.0, 2.0]])  # a flat list is one frame
    assert records[1].context == (("s0", "hello there"),)
    assert records[2].audio.shape == (2, 3)
    assert records[2].image.shape == (1, 2)
    assert records[2].label == -1.5


@pytest.mark.parametrize("mutate, fragment", [
    (lambda r: r.pop("label"), "missing keys"),
    (lambda r: r.update(extra=1), "unexpected keys"),
    (lambda r: r.update(task_type="new"), "unknown task_type"),
    (lambda r: r.update(dataset_id="ghost"), "not declared"),
    (lambda r: r.update(task_type="erc"), "conflicts with registry task"),
    (lambda r: r.update(text="   "), "text must be a non-empty string"),
    (lambda r: r.update(label="meh"), "not in the answer set"),
    (lambda r: r.update(context=[["s", "hi"]]), "only valid for conversation"),
    (lambda r: r.update(audio=[[1.0]]), "declares no audio"),
    # a flat list is one frame, of its length: here 2 against a width of 3
    (lambda r: r.update(task_type="msa", dataset_id="score", label=1.0, audio=[1.0, 2.0]),
     "audio has dimension 2, registry declares 3"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label=1.0,
                        audio=[[1.0, 2.0, 3.0], [4.0, 5.0]]), "rectangular array"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label=1.0, audio=[[[1.0, 2.0, 3.0]]]),
     "audio must be a frames x dim array"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label=1.0, image=2.0),
     "image must be null, a nested array, or a sidecar path"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label=1.0, audio={"frames": []}),
     "audio must be null, a nested array, or a sidecar path"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label="high"), "label must be a number"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label=True), "label must be a number"),
    (lambda r: r.update(task_type="msa", dataset_id="score", label=[1.0]), "label must be a number"),
    (lambda r: r.update(task_type="erc", dataset_id="conv", label="joy", speaker_id="s1",
                        utterance_index=0, context="s0: hi"), "context must be a list"),
    (lambda r: r.update(task_type="erc", dataset_id="conv", label="joy", speaker_id="s1",
                        utterance_index=0, context=[["s0"]]), "context entries must be"),
    (lambda r: r.update(task_type="erc", dataset_id="conv", label="joy", speaker_id="s1",
                        utterance_index=0, context=[["s0", "hi"], ["s1", 2]]), "context entries must be"),
    (lambda r: r.update(task_type="erc", dataset_id="conv", label="joy", speaker_id="s1",
                        utterance_index=0, context=[("s0", " ")]), "context entries must be"),
    (lambda r: r.update(task_type="erc", dataset_id="conv", label="joy", speaker_id="s1",
                        utterance_index=0, context=["s0 hi"]), "context entries must be"),
])
def test_load_corpus_line_errors(tmp_path, mutate, fragment):
    reg = mini_registry()
    row = full_row()
    mutate(row)
    path = tmp_path / "c.jsonl"
    write_lines(path, [full_row(), row])
    with pytest.raises(DataError) as err:
        load_corpus(path, reg)
    assert fragment in str(err.value)
    assert ":2: " in str(err.value)  # line number of the bad record


def test_load_corpus_more_errors(tmp_path):
    reg = mini_registry()
    path = tmp_path / "c.jsonl"
    write_lines(path, ["{not json"])
    with pytest.raises(DataError) as err:
        load_corpus(path, reg)
    assert ":1: " in str(err.value)
    write_lines(path, [full_row(), '["fine film", "positive"]'])
    with pytest.raises(DataError, match=":2: not a JSON object"):
        load_corpus(path, reg)
    # a line naming a key twice is refused, not read as its last value
    write_lines(path, [full_row(), json.dumps(full_row())[:-1] + ', "label": "negative"}'])
    with pytest.raises(DataError, match=":2: names 'label' twice"):
        load_corpus(path, reg)

    # ERC records need speaker/index/context
    write_lines(path, [full_row(task_type="erc", dataset_id="conv", label="joy",
                                context=[["s0", "x"]], speaker_id=None, utterance_index=0)])
    with pytest.raises(DataError):
        load_corpus(path, reg)
    write_lines(path, [full_row(task_type="erc", dataset_id="conv", label="joy",
                                context=None, speaker_id="s0", utterance_index=0)])
    with pytest.raises(DataError):
        load_corpus(path, reg)
    write_lines(path, [full_row(task_type="erc", dataset_id="conv", label="joy",
                                context=[["s0", "x"]], speaker_id="s0", utterance_index=-1)])
    with pytest.raises(DataError):
        load_corpus(path, reg)

    # scalar out of range / wrong feature dim / non-finite features
    write_lines(path, [full_row(task_type="msa", dataset_id="score", label=3.5)])
    with pytest.raises(DataError):
        load_corpus(path, reg)
    write_lines(path, [full_row(task_type="msa", dataset_id="score", label=1.0,
                                audio=[[1.0, 2.0]])])
    with pytest.raises(DataError):
        load_corpus(path, reg)


def test_sidecar_of_zero_frames_is_a_data_error(tmp_path):
    """A sidecar that reads cleanly but holds no frames is refused by the
    loader, naming the field and the record's line."""
    write_feature_sidecar(tmp_path / "none.saev", np.zeros((0, 3), dtype=np.float32))
    path = tmp_path / "c.jsonl"
    write_lines(path, [full_row(task_type="erc", dataset_id="conv", label="joy", context=[],
                                speaker_id="s0", utterance_index=0, audio="none.saev")])
    with pytest.raises(DataError, match=r":1: audio has zero frames"):
        load_corpus(path, mini_registry())


@pytest.mark.parametrize("text, fragment", [
    ("{}", "non-empty object"),
    ("[]", "non-empty object"),
    ('"rev"', "non-empty object"),
    ('{"rev": ["negative", "positive"]}', "'rev' must be an object"),
    ('{"rev": null}', "'rev' must be an object"),
])
def test_registry_file_that_is_not_an_object_of_objects_is_a_config_error(tmp_path, text, fragment):
    path = tmp_path / "registry.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        Registry.load(path)


def test_registry_naming_a_dataset_twice_is_a_config_error(tmp_path):
    """A registry file that declares one dataset id twice is refused, not
    read as its last declaration; so are specs that repeat an id."""
    entry = json.dumps(mini_registry().to_json()["rev"])
    path = tmp_path / "registry.json"
    path.write_text(f'{{"rev": {entry}, "conv": {entry}, "rev": {entry}}}')
    with pytest.raises(ConfigError, match="'rev' twice"):
        Registry.load(path)
    spec = mini_registry().spec("rev")
    with pytest.raises(ConfigError, match="duplicate dataset id 'rev'"):
        Registry([spec, mini_registry().spec("conv"), spec])


def test_corpus_roundtrip_identity(toy, tmp_path):
    records = toy["records"]
    out = tmp_path / "again.jsonl"
    serialize_corpus(records, out)
    again = load_corpus(out, toy["registry"])
    assert len(again) == len(records)
    for a, b in zip(records, again):
        assert (a.task_type, a.dataset_id, a.text, a.context, a.speaker_id,
                a.utterance_index, a.label) == \
               (b.task_type, b.dataset_id, b.text, b.context, b.speaker_id,
                b.utterance_index, b.label)
        for field in ("audio", "image"):
            fa, fb = getattr(a, field), getattr(b, field)
            assert (fa is None) == (fb is None)
            if fa is not None:
                assert np.array_equal(fa, fb)


# ---------------------------------------------------------------------------
# sidecars


def test_sidecar_roundtrip_and_errors(tmp_path):
    feats = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    path = tmp_path / "f.saev"
    write_feature_sidecar(path, feats)
    back = read_feature_sidecar(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, feats)
    assert back.flags.c_contiguous and not back.flags.writeable
    write_feature_sidecar(path, np.zeros((3, 0), dtype=np.float32))
    assert read_feature_sidecar(path).shape == (3, 0)

    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(DataError):
        read_feature_sidecar(path)
    write_feature_sidecar(path, feats)
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])  # truncated payload
    with pytest.raises(DataError):
        read_feature_sidecar(path)
    with pytest.raises(DataError):
        read_feature_sidecar(tmp_path / "nope.saev")
    with pytest.raises(ContractError):
        write_feature_sidecar(path, np.zeros(3, dtype=np.float32))


def test_sidecar_read_holds_one_copy(tmp_path):
    """Reading a sidecar holds its file's bytes once: the array is a view
    past the 12-byte header, not a copy of the payload."""
    import tracemalloc
    path = tmp_path / "big.saev"
    write_feature_sidecar(path, np.ones((1024, 256), dtype=np.float32))
    size = path.stat().st_size
    read_feature_sidecar(path)
    tracemalloc.start()
    try:
        back = read_feature_sidecar(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.shape == (1024, 256) and np.all(back == 1.0)
    assert peak <= 1.1 * size, (peak, size)


def test_sidecar_reference_in_corpus(tmp_path):
    reg = mini_registry()
    feats = np.array([[0.5, -1.0, 2.0]], dtype=np.float32)
    write_feature_sidecar(tmp_path / "a.saev", feats)
    path = tmp_path / "c.jsonl"
    write_lines(path, [full_row(task_type="erc", dataset_id="conv", label="joy",
                                context=[], speaker_id="s0", utterance_index=0,
                                audio="a.saev")])
    records = load_corpus(path, reg)
    assert np.array_equal(records[0].audio, feats)


def test_unreadable_corpus_and_sidecars_are_data_errors(tmp_path):
    reg = mini_registry()
    path = tmp_path / "c.jsonl"
    write_lines(path, [full_row()])
    path.write_bytes(path.read_bytes() + b'{"text": "caf\xe9"}\n')  # Latin-1, not UTF-8
    with pytest.raises(DataError, match=r":2: not UTF-8"):
        load_corpus(path, reg)
    for sidecar in ("", ".", "sub"):
        (tmp_path / "sub").mkdir(exist_ok=True)
        write_lines(path, [full_row(task_type="erc", dataset_id="conv", label="joy", context=[],
                                    speaker_id="s0", utterance_index=0, audio=sidecar)])
        with pytest.raises(DataError, match="cannot read feature sidecar"):
            load_corpus(path, reg)


def test_unreadable_corpus_path_is_config_error(tmp_path):
    """The corpus path is one the user names, so a missing or unreadable
    one is a ConfigError, as for every other named input file."""
    reg = mini_registry()
    (tmp_path / "sub").mkdir()
    with pytest.raises(ConfigError, match="cannot read corpus"):
        load_corpus(tmp_path / "sub", reg)
    with pytest.raises(ConfigError, match="corpus not found"):
        load_corpus(tmp_path / "nope.jsonl", reg)


def test_corpus_byte_mutation_fuzz(tmp_path):
    """Every single-byte change to a corpus file or its sidecar loads or
    raises a SentigenError, never a raw Python exception."""
    reg = mini_registry()
    write_feature_sidecar(tmp_path / "a.saev", np.array([[0.5, -1.0, 2.0]], dtype=np.float32))
    path = tmp_path / "c.jsonl"
    write_lines(path, [full_row(),
                       full_row(task_type="erc", dataset_id="conv", label="joy", context=[["s1", "hi"]],
                                speaker_id="s0", utterance_index=1, audio="a.saev"),
                       full_row(task_type="msa", dataset_id="score", text="meh", label=-1.5,
                                audio=[[0.0, 1.0, 2.0]], image=[[1.0, 2.0]])])
    loaded = rejected = 0
    for target in (path, tmp_path / "a.saev"):
        clean = target.read_bytes()
        for i in range(len(clean)):
            for byte in b"\x00\xff\"{":
                if clean[i] == byte:
                    continue
                target.write_bytes(clean[:i] + bytes([byte]) + clean[i + 1:])
                try:
                    load_corpus(path, reg)
                    loaded += 1
                except SentigenError:
                    rejected += 1
        target.write_bytes(clean)
    assert loaded and rejected
    assert len(load_corpus(path, reg)) == 3


# ---------------------------------------------------------------------------
# the one writer


# Calls that make or change a file: ``open`` in a mode that writes, and these
# methods (``os.replace`` as ``replace`` on the ``os`` module).
WRITE_METHODS = {"mkdir", "makedirs", "write_text", "write_bytes"}


def file_writes(tree):
    """Dotted names of the functions that hold a file-write call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "open" and not on_os:
                # builtin open(file, mode) or path.open(mode); a mode that is
                # not a literal counts as a write
                at = 1 if isinstance(func, ast.Name) else 0
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[at] if len(node.args) > at else None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and not set(str(mode.value)) & set("wax+")):
                    found.append(scope)
            elif name in WRITE_METHODS or (on_os and name == "replace"):
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_data_is_the_only_writer():
    """Every file the package writes goes through ``data.write_file_atomic``,
    which makes directories too. The only other write calls are
    ``RunDir``'s: it makes the output directory it locks, and opens the
    append handle of each per-step log, whose kept lines that writer swaps
    in first."""
    writers = set()
    for path in sorted(Path(sentigen.__file__).parent.glob("*.py")):
        writers |= {(path.name, scope) for scope in file_writes(ast.parse(path.read_text()))}
    assert writers == {("data.py", "write_file_atomic"), ("data.py", "RunDir.__enter__")}


def test_only_run_state_is_synced(tmp_path, monkeypatch):
    """Checkpoints and manifests sync the file, then its directory; data and
    result files are swapped in by rename alone."""
    from sentigen.model import ModelConfig, save_checkpoint
    real, synced = os.fsync, []
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real(fd))
    write_json(tmp_path / "a.json", {"a": 1})
    write_jsonl(tmp_path / "a.jsonl", [{"a": 1}])
    write_feature_sidecar(tmp_path / "a.saev", np.zeros((1, 2)))
    mini_registry().save(tmp_path / "registry.json")
    assert synced == []
    with RunDir(tmp_path, "test", 0, {}):
        pass
    save_checkpoint(tmp_path / "a.ckpt", ModelConfig(), {}, meta={})
    assert len(synced) == 4


def test_writers_racing_on_one_path_each_publish_a_whole_file(tmp_path):
    """Two threads rewriting one path, each its own 1 MB pattern in 64 KB
    chunks, while a third reads it: every write succeeds, the reader only
    ever sees the first file or one writer's whole pattern, and no temp
    file is left behind."""
    path, chunk = tmp_path / "shared.bin", 64 * 1024
    contents = [bytes([k]) * (16 * chunk) for k in range(3)]
    write_file_atomic(path, [contents[0]])
    errors, seen, done = [], set(), threading.Event()

    def write(k):
        for _ in range(20):
            try:
                write_file_atomic(path, [contents[k][i:i + chunk]
                                         for i in range(0, len(contents[k]), chunk)])
            except ConfigError as exc:
                errors.append(str(exc))

    def read():
        while not done.is_set():
            seen.add(path.read_bytes())

    reader = threading.Thread(target=read)
    writers = [threading.Thread(target=write, args=(k,)) for k in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (reader, *writers))
    assert errors == []
    assert seen <= set(contents)
    assert path.read_bytes() in contents[1:]
    assert [p.name for p in tmp_path.iterdir()] == ["shared.bin"]


# ---------------------------------------------------------------------------
# polarity and pools


def test_polarity_mapping():
    assert to_polarity("joy") is Polarity.POSITIVE
    assert to_polarity("Happiness") is Polarity.POSITIVE
    assert to_polarity("frustrated") is Polarity.NEGATIVE
    assert to_polarity("surprise") is Polarity.NEUTRAL
    assert to_polarity(2.5) is Polarity.POSITIVE
    assert to_polarity(-0.5) is Polarity.NEGATIVE
    assert to_polarity(0.0) is Polarity.NEUTRAL
    with pytest.raises(ConfigError):
        to_polarity("sardonic")
    with pytest.raises(ConfigError):
        to_polarity(True)
    for label in (None, ["joy"]):
        with pytest.raises(ConfigError, match="no polarity mapping"):
            to_polarity(label, "conv")


def test_render_scalar_label():
    assert render_scalar_label(-0.0) == "0.0"
    assert render_scalar_label(2.0) == "2.0"
    assert render_scalar_label(-2.66) == "-2.7"
    assert render_scalar_label(1) == "1.0"
