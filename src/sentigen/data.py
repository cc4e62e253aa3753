"""Records, the dataset registry, label polarities, sidecars, and all file I/O.

A corpus is a JSONL file of records covering four task families (aspect terms,
scalar sentiment, conversation emotion, comment sentiment). Every dataset a
corpus references must be declared in a registry config which fixes its task
type, answer set, feature dimensions, and evaluation metrics.

Every file the package reads is read inside ``reading`` (``read_bytes``,
or a checkpoint's streaming load) and every file it writes goes through
``write_file_atomic``, bar a training log's append handle, so
a path that cannot be read or written is one ``ConfigError`` line and a
failed or killed write leaves the old file whole. A command's output
directory has one owner, ``RunDir``: it locks the directory, writes the
manifest, keeps and appends the per-step logs, and syncs them before each
checkpoint.
"""
from __future__ import annotations

import contextlib
import fcntl
import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, DataError

SIDECAR_MAGIC = b"SAEV"

# Reserved dataset id of the first pre-training stage's pair prompts
# (``prompt.combine_queries``), which carry its markers and answer set.
# Registries for that stage must declare it, as a "ca" dataset.
POOL_DATASET_ID = "polarity-pool"

RECORD_KEYS = (
    "task_type",
    "dataset_id",
    "text",
    "audio",
    "image",
    "context",
    "speaker_id",
    "utterance_index",
    "label",
)

METRIC_NAMES = ("wa", "wf1", "mf1_excl_neutral", "mae", "acc7", "acc2")


class TaskType(Enum):
    ABSA = "absa"
    MSA = "msa"
    ERC = "erc"
    CA = "ca"


TASK_ORDER = (TaskType.ABSA, TaskType.MSA, TaskType.ERC, TaskType.CA)


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


# Fine-grained label string -> polarity. Lookup is case-insensitive. Scalar
# labels map by sign instead and never consult this table.
POLARITY_TABLE = {
    "positive": Polarity.POSITIVE,
    "joy": Polarity.POSITIVE,
    "happy": Polarity.POSITIVE,
    "happiness": Polarity.POSITIVE,
    "excited": Polarity.POSITIVE,
    "negative": Polarity.NEGATIVE,
    "anger": Polarity.NEGATIVE,
    "angry": Polarity.NEGATIVE,
    "sad": Polarity.NEGATIVE,
    "sadness": Polarity.NEGATIVE,
    "fear": Polarity.NEGATIVE,
    "fearful": Polarity.NEGATIVE,
    "disgust": Polarity.NEGATIVE,
    "frustrated": Polarity.NEGATIVE,
    "hate": Polarity.NEGATIVE,
    "neutral": Polarity.NEUTRAL,
    "no-emotion": Polarity.NEUTRAL,
    "surprise": Polarity.NEUTRAL,
    "surprised": Polarity.NEUTRAL,
    "conflict": Polarity.NEUTRAL,
}

SCALAR_LO = -3.0
SCALAR_HI = 3.0


def render_scalar_label(value):
    """Canonical one-decimal rendering of a scalar label; -0.0 renders as 0.0."""
    v = round(float(value), 1)
    if v == 0.0:
        v = 0.0
    return f"{v:.1f}"


@dataclass(frozen=True)
class AnswerSet:
    """Admissible answers for one dataset.

    Either an ordered tuple of label strings, or (for scalar sentiment) the
    rendering rule "signed one-decimal literal in [lo, hi]".
    """

    labels: tuple | None = None
    scalar: bool = False
    lo: float = SCALAR_LO
    hi: float = SCALAR_HI

    @classmethod
    def scalar_range(cls, lo=SCALAR_LO, hi=SCALAR_HI):
        return cls(labels=None, scalar=True, lo=float(lo), hi=float(hi))

    def render(self, label):
        if self.scalar:
            return render_scalar_label(label)
        return str(label)

    def to_json(self):
        if self.scalar:
            return {"kind": "scalar", "min": self.lo, "max": self.hi}
        return list(self.labels)

    @classmethod
    def from_json(cls, obj):
        """A list of distinct label strings, or ``{"kind": "scalar"}`` with
        optional finite ``min`` < ``max``; anything else is a ConfigError."""
        if isinstance(obj, list):
            if not obj or not all(isinstance(x, str) for x in obj) or len(set(obj)) != len(obj):
                raise ConfigError(f"answer set must list distinct label strings, got {obj!r}")
            return cls(labels=tuple(obj))
        if isinstance(obj, dict) and obj.get("kind") == "scalar":
            lo, hi = obj.get("min", SCALAR_LO), obj.get("max", SCALAR_HI)
            for key, value in (("min", lo), ("max", hi)):
                # a bool is no number here, as in config files
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    raise ConfigError(f"scalar answer set {key} must be a finite number, got {value!r}")
            if not lo < hi:
                raise ConfigError(f"scalar answer set min {lo} is not below max {hi}")
            return cls.scalar_range(lo, hi)
        raise ConfigError(f"unrecognised answer_set spec: {obj!r}")


@dataclass(frozen=True)
class DatasetSpec:
    dataset_id: str
    task_type: TaskType
    answer: AnswerSet
    acoustic_dim: int | None
    visual_dim: int | None
    metrics: tuple


@contextlib.contextmanager
def reading(path, what, error=ConfigError):
    """A block that reads the file at ``path``, named ``what`` in errors,
    given ``path`` as a Path. A missing or unreadable path (a directory,
    say), or a read that fails, is an ``error``: a ConfigError for a path the
    user names, a DataError for one named inside the data, such as a feature
    sidecar."""
    path = Path(path)
    try:
        yield path
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path} ({exc.strerror})") from None


def read_bytes(path, what, error=ConfigError):
    """The bytes of the file at ``path``, refused as ``reading`` says."""
    with reading(path, what, error) as path:
        return path.read_bytes()


# numbers each write's temp file within this process
_WRITES = itertools.count()


def write_file_atomic(path, chunks, sync=False):
    """Write the byte strings ``chunks`` to ``path``, making its directory,
    through a sibling temp file swapped in by rename, so a failed or killed
    write leaves the old file whole. Each write has a temp file of its own,
    named for ``path``, the process and the write, so writers racing on one
    path each publish a whole file. Any OSError is a ConfigError naming
    ``path``, with no temp file left behind. ``sync`` syncs the temp file
    before the swap and the directory after it, so run state (checkpoints,
    kept log lines, manifests) survives the machine stopping too. Data and
    result files skip it: a rerun rewrites them, and syncing doubled the
    time of make-corpus."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_WRITES)}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "xb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                if sync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        if sync:
            fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({exc.strerror})") from None


def write_json(path, obj, sort_keys=False, sync=False):
    """Write ``obj`` as indented JSON text plus a newline, atomically."""
    text = json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"
    write_file_atomic(path, [text.encode("utf-8")], sync)


def write_jsonl(path, rows):
    """Write one JSON object per line, non-ASCII text kept as UTF-8, atomically."""
    write_file_atomic(path, [(json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8")
                             for row in rows])


class RunDir:
    """The one writer of the output directory ``path``, entered by a command
    at its first write, once its plan has passed. Entering makes the
    directory and takes an exclusive ``flock`` on it, which the kernel drops
    when its holder exits or dies, so a second command on a busy directory
    is a ConfigError before it writes. Under the lock it checks the per-step
    JSONL logs a resume from step ``resume_step`` keeps, removes the temp
    files that killed writes of the manifest, the logs and ``files`` (glob
    patterns) left, and writes its own ``manifest-<command>.json``, synced:
    the command, its seed, the SHA-256 of ``config`` as sorted-key JSON and
    the code version. Then it swaps in each log's kept lines whole. ``logs``
    maps each log's name to None, for a line every step (the first log), or
    to its schedule, ``due(step)``."""

    def __init__(self, path, command, seed, config, files=(), logs=(), resume_step=None):
        config_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
        self.manifest = {"command": command, "seed": seed, "config_hash": config_hash,
                         "code_version": __version__}
        self.path, self.step, self.schedules, self.logs = Path(path), resume_step, dict(logs), {}
        self.files = (f"manifest-{command}.json", *self.schedules, *files)

    def _plan_logs(self):
        """Each log's lines up to the resumed checkpoint's step (none for a
        fresh run), up to a line that is torn, not UTF-8 or not JSON, once
        each log ends where its schedule says: at that step, or at the last
        step due by then; with no line, if no log before it keeps one (a
        resume into another directory)."""
        kept = {}
        for name, due in self.schedules.items():
            path, lines = self.path / name, []
            raw = read_bytes(path, "training log") if self.step is not None and path.exists() else b""
            for line in raw.splitlines(keepends=True):
                try:
                    if not line.endswith(b"\n") or json.loads(line.decode("utf-8"))["step"] > self.step:
                        break
                except (ValueError, KeyError, TypeError):
                    break  # a line torn by the interruption, or not one of ours
                lines.append(line)
            last = json.loads(lines[-1])["step"] if lines else 0
            if due is None:  # appending from the checkpoint's step would leave a gap
                if lines and last != self.step:
                    raise ConfigError(f"{path}: log ends at step {last}, "
                                      f"not at its checkpoint's step {self.step}")
            elif last != (want := next((s for s in range(self.step, 0, -1) if due(s)), 0)
                          if any(kept.values()) else 0):
                raise ConfigError(f"{path}: log ends at step {last}, not at step {want}, "
                                  f"the last validation due by its checkpoint's step {self.step}")
            kept[name] = lines
        return kept

    def __enter__(self):
        with contextlib.ExitStack() as stack:
            try:
                self.path.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, os.O_RDONLY)
                stack.callback(os.close, fd)
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ConfigError(f"--out {self.path} is in use by another command") from None
            except OSError as exc:
                raise ConfigError(f"cannot make or lock {self.path} ({exc.strerror})") from None
            kept = self._plan_logs()
            for pattern in self.files:  # no live writer owns these under the lock
                for tmp in self.path.glob(f"{pattern}.[0-9]*-[0-9]*.tmp"):
                    with contextlib.suppress(OSError):
                        tmp.unlink()
            write_json(self.path / self.files[0], self.manifest, sort_keys=True, sync=True)
            for name, lines in kept.items():
                write_file_atomic(self.path / name, lines, sync=True)
                self.logs[name] = stack.enter_context(open(self.path / name, "a", encoding="utf-8"))
            self._exit = stack.pop_all()
        return self

    def __exit__(self, *exc):
        self._exit.close()  # the logs, then the lock

    def append(self, name, obj):
        """Append ``obj`` to log ``name`` as one JSON line; a failed write (a
        full disk, say) is a one-line ConfigError. The handle is closed first,
        so a failed flush's buffered bytes cannot fail again on exit."""
        fh = self.logs[name]
        try:
            fh.write(json.dumps(obj) + "\n")
            fh.flush()
        except OSError as exc:
            with contextlib.suppress(OSError):
                fh.close()
            raise ConfigError(f"cannot write {fh.name} ({exc.strerror})") from None

    def checkpoint(self, save, *args, **kwargs):
        """Sync every open log, then ``save(*args, **kwargs)``, so no
        checkpoint reaches the disk ahead of a log line it covers."""
        for fh in self.logs.values():
            try:
                os.fsync(fh.fileno())
            except OSError as exc:
                raise ConfigError(f"cannot sync {fh.name} ({exc.strerror})") from None
        save(*args, **kwargs)


class _RepeatedKey(Exception):
    """A JSON object names the key ``args[0]`` twice."""


def _unique_keys(pairs):
    """``json``'s ``object_pairs_hook`` for the readers below: the object's
    dict, or ``_RepeatedKey`` for an object that names a key twice, which
    ``json`` alone would read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise _RepeatedKey(next(k for k in keys if keys.count(k) > 1))
    return obj


def read_json(path, what, error=ConfigError):
    """Parse the JSON file at ``path``, named ``what`` in errors. A missing
    or unreadable path is a ConfigError (see ``read_bytes``); bytes that are
    not UTF-8 or not JSON, and an object that names a key twice, are an
    ``error``."""
    raw = read_bytes(path, what)
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    except _RepeatedKey as exc:
        raise error(f"{what} {path} names {exc.args[0]!r} twice") from None


def read_jsonl(path, what):
    """Yield ``(line_no, obj)`` for each non-blank line of the JSONL file at
    ``path``. The path is read by ``read_bytes``; a line that is not UTF-8,
    not JSON or not a JSON object, or holds an object that names a key
    twice, is a DataError naming the line."""
    p = str(path)
    # split before decoding, so an undecodable line can be named; bytes split
    # on the same line ends as text mode's universal newlines
    for line_no, raw in enumerate(read_bytes(path, what).splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 ({exc.reason})", line=line_no, path=p) from None
        if not text.strip():
            continue
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON ({exc.msg})", line=line_no, path=p) from None
        except _RepeatedKey as exc:
            raise DataError(f"names {exc.args[0]!r} twice", line=line_no, path=p) from None
        if not isinstance(obj, dict):
            raise DataError("not a JSON object", line=line_no, path=p)
        yield line_no, obj


class Registry:
    """Ordered collection of dataset declarations. Declaration order is the
    dataset index used by the model's dataset embedding."""

    def __init__(self, specs):
        self._specs = {}
        for s in specs:
            if s.dataset_id in self._specs:
                raise ConfigError(f"duplicate dataset id {s.dataset_id!r}")
            self._specs[s.dataset_id] = s
        self._order = list(self._specs)

    @property
    def dataset_ids(self):
        return list(self._order)

    def __len__(self):
        return len(self._order)

    def __contains__(self, dataset_id):
        return dataset_id in self._specs

    def spec(self, dataset_id):
        try:
            return self._specs[dataset_id]
        except KeyError:
            raise ConfigError(f"dataset {dataset_id!r} is not declared in the registry") from None

    def index(self, dataset_id):
        self.spec(dataset_id)
        return self._order.index(dataset_id)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or not obj:
            raise ConfigError("registry must be a non-empty object mapping dataset ids to specs")
        specs = []
        for dataset_id, entry in obj.items():
            if not isinstance(entry, dict):
                raise ConfigError(f"registry entry {dataset_id!r} must be an object")
            missing = {"task_type", "answer_set", "acoustic_dim", "visual_dim", "metrics"} - set(entry)
            if missing:
                raise ConfigError(f"registry entry {dataset_id!r} missing keys {sorted(missing)}")
            try:
                task = TaskType(entry["task_type"])
            except ValueError:
                raise ConfigError(f"registry entry {dataset_id!r}: unknown task_type {entry['task_type']!r}") from None
            try:
                answer = AnswerSet.from_json(entry["answer_set"])
            except ConfigError as exc:
                raise ConfigError(f"registry entry {dataset_id!r}: {exc}") from None
            if answer.scalar != (task is TaskType.MSA):
                raise ConfigError(f"registry entry {dataset_id!r}: scalar answer sets are for msa datasets only")
            for dim_key in ("acoustic_dim", "visual_dim"):
                dim = entry[dim_key]
                # a bool is no int here, as in config files
                if dim is not None and (type(dim) is not int or dim <= 0):
                    raise ConfigError(f"registry entry {dataset_id!r}: {dim_key} must be null or a positive int")
            metrics = entry["metrics"]
            if not isinstance(metrics, list) or not metrics or any(m not in METRIC_NAMES for m in metrics):
                raise ConfigError(f"registry entry {dataset_id!r}: metrics must be drawn from {METRIC_NAMES}")
            specs.append(DatasetSpec(
                dataset_id=dataset_id,
                task_type=task,
                answer=answer,
                acoustic_dim=entry["acoustic_dim"],
                visual_dim=entry["visual_dim"],
                metrics=tuple(metrics),
            ))
        return cls(specs)

    def to_json(self):
        out = {}
        for dataset_id in self._order:
            s = self._specs[dataset_id]
            out[dataset_id] = {
                "task_type": s.task_type.value,
                "answer_set": s.answer.to_json(),
                "acoustic_dim": s.acoustic_dim,
                "visual_dim": s.visual_dim,
                "metrics": list(s.metrics),
            }
        return out

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path, "registry file"))

    def save(self, path):
        write_json(path, self.to_json())


@dataclass(frozen=True)
class SaevalRecord:
    """One sample in the unified corpus format.

    ``context``, ``speaker_id`` and ``utterance_index`` are present exactly for
    conversation records.
    """

    task_type: TaskType
    dataset_id: str
    text: str
    audio: np.ndarray | None = None
    image: np.ndarray | None = None
    context: tuple | None = None
    speaker_id: str | None = None
    utterance_index: int | None = None
    label: object = None


def to_polarity(label, dataset_id="?"):
    """Coarse polarity of a gold label. Scalars map by sign; strings via the
    fixed table. Unmapped strings are a configuration error."""
    if isinstance(label, bool):
        raise ConfigError(f"dataset {dataset_id!r}: boolean label {label!r} has no polarity")
    if isinstance(label, (int, float)):
        v = float(label)
        if v > 0:
            return Polarity.POSITIVE
        if v < 0:
            return Polarity.NEGATIVE
        return Polarity.NEUTRAL
    if isinstance(label, str):
        pol = POLARITY_TABLE.get(label.lower())
        if pol is None:
            raise ConfigError(f"dataset {dataset_id!r}: label {label!r} has no polarity mapping")
        return pol
    raise ConfigError(f"dataset {dataset_id!r}: label {label!r} has no polarity mapping")


# ---------------------------------------------------------------------------
# feature sidecars


def write_feature_sidecar(path, features):
    arr = np.ascontiguousarray(np.asarray(features, dtype=np.float32))
    if arr.ndim != 2:
        raise ContractError(f"sidecar features must be 2-D, got shape {arr.shape}")
    write_file_atomic(path, [SIDECAR_MAGIC, struct.pack("<II", *arr.shape),
                             arr.astype("<f4").tobytes(order="C")])


def read_feature_sidecar(path):
    blob = read_bytes(path, "feature sidecar", DataError)
    if len(blob) < 12 or blob[:4] != SIDECAR_MAGIC:
        raise DataError("bad sidecar magic", path=str(path))
    rows, cols = struct.unpack("<II", blob[4:12])
    expect = 12 + rows * cols * 4
    if len(blob) != expect:
        raise DataError(f"sidecar payload is {len(blob)} bytes, expected {expect}", path=str(path))
    # a view past the header, read-only as the bytes are: no copy of the payload
    return np.frombuffer(blob, dtype="<f4", offset=12).reshape(rows, cols)


# ---------------------------------------------------------------------------
# corpus loading / serialization


def _load_features(value, dim, field, path, line, base_dir):
    if value is None:
        # a declared modality may be absent: records carry whatever subset they have
        return None
    if dim is None:
        raise DataError(f"{field} present but the dataset declares no {field} features", line=line, path=path)
    if isinstance(value, str):
        arr = read_feature_sidecar(Path(base_dir) / value)
    elif isinstance(value, list):
        try:
            arr = np.asarray(value, dtype=np.float32)
        except (TypeError, ValueError):
            raise DataError(f"{field} must be a rectangular array of numbers", line=line, path=path) from None
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DataError(f"{field} must be a frames x dim array", line=line, path=path)
    else:
        raise DataError(f"{field} must be null, a nested array, or a sidecar path", line=line, path=path)
    if arr.shape[0] == 0:
        raise DataError(f"{field} has zero frames", line=line, path=path)
    if arr.shape[1] != dim:
        raise DataError(f"{field} has dimension {arr.shape[1]}, registry declares {dim}", line=line, path=path)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{field} contains non-finite values", line=line, path=path)
    return np.ascontiguousarray(arr)


def _parse_record(obj, registry, path, line, base_dir):
    keys = set(obj)
    expected = set(RECORD_KEYS)
    if keys != expected:
        extra = sorted(keys - expected)
        missing = sorted(expected - keys)
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            parts.append(f"unexpected keys {extra}")
        raise DataError("; ".join(parts), line=line, path=path)
    try:
        task = TaskType(obj["task_type"])
    except ValueError:
        raise DataError(f"unknown task_type {obj['task_type']!r}", line=line, path=path) from None
    dataset_id = obj["dataset_id"]
    if not isinstance(dataset_id, str) or dataset_id not in registry:
        raise DataError(f"dataset {dataset_id!r} is not declared in the registry", line=line, path=path)
    spec = registry.spec(dataset_id)
    if spec.task_type is not task:
        raise DataError(
            f"record task {task.value!r} conflicts with registry task {spec.task_type.value!r} for {dataset_id!r}",
            line=line, path=path)
    text = obj["text"]
    if not isinstance(text, str) or not text.strip():
        raise DataError("text must be a non-empty string", line=line, path=path)

    audio = _load_features(obj["audio"], spec.acoustic_dim, "audio", path, line, base_dir)
    image = _load_features(obj["image"], spec.visual_dim, "image", path, line, base_dir)

    context = obj["context"]
    speaker = obj["speaker_id"]
    utt_index = obj["utterance_index"]
    if task is TaskType.ERC:
        if not isinstance(speaker, str) or not speaker:
            raise DataError("conversation records need a speaker_id", line=line, path=path)
        if not isinstance(utt_index, int) or isinstance(utt_index, bool) or utt_index < 0:
            raise DataError("conversation records need a non-negative utterance_index", line=line, path=path)
        if context is None:
            raise DataError("conversation records need a context list (may be empty)", line=line, path=path)
        if not isinstance(context, list):
            raise DataError("context must be a list of [speaker_id, text] pairs", line=line, path=path)
        pairs = []
        for item in context:
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], str) or not isinstance(item[1], str) or not item[1].strip()):
                raise DataError("context entries must be [speaker_id, text] pairs", line=line, path=path)
            pairs.append((item[0], item[1]))
        context = tuple(pairs)
    else:
        if context is not None or speaker is not None or utt_index is not None:
            raise DataError(
                "context, speaker_id and utterance_index are only valid for conversation records",
                line=line, path=path)

    label = obj["label"]
    if spec.answer.scalar:
        if isinstance(label, bool) or not isinstance(label, (int, float)):
            raise DataError(f"label must be a number for {dataset_id!r}", line=line, path=path)
        label = float(label)
        if not (spec.answer.lo <= label <= spec.answer.hi):
            raise DataError(
                f"label {label} outside [{spec.answer.lo}, {spec.answer.hi}]", line=line, path=path)
    else:
        if not isinstance(label, str) or label not in spec.answer.labels:
            raise DataError(f"label {label!r} is not in the answer set of {dataset_id!r}", line=line, path=path)

    return SaevalRecord(
        task_type=task,
        dataset_id=dataset_id,
        text=text,
        audio=audio,
        image=image,
        context=context,
        speaker_id=speaker,
        utterance_index=utt_index,
        label=label,
    )


def load_corpus(path, registry):
    """Parse and validate a UTF-8 JSONL corpus. A missing or unreadable path
    is a ConfigError; a malformed record is a DataError naming its line."""
    path = Path(path)
    return [_parse_record(obj, registry, str(path), line_no, path.parent)
            for line_no, obj in read_jsonl(path, "corpus")]
