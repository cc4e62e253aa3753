"""Training: two pre-training stages and answer fine-tuning on one driver.

A run plans before its first write: ``_Run`` resolves the model config and
builds the prompt table, one prompt per corpus record, that every stage
trains from (stage one joins two table prompts into each pair's prompt, and
its plan checks the most-framed pair each pool can draw), and fine-tuning's
validation prompts, which every validation pass reuses; each stage then
builds its pool, a ``GroupPools`` whose ``deal`` hands batch slots to groups
round-robin, or stage two's ``IndexPool``.

``_Run.drive`` owns the loop every stage shares: restore pool state on
resume, write the manifest, step, check the loss is finite, back-propagate,
clip, update, log, save periodically and finally write the last checkpoint.
A stage supplies only its sampling pool, the number of units one pass over
the data holds, a step function that draws a batch and returns its loss, and
(fine-tuning only) a validation hook. Every log line goes through
``_Run.write_line``.

Runs are bit-deterministic for a fixed (seed, config, corpus): RNG streams are
spawned from the seed per concern (data order, masking, dropout, init), pools
reshuffle from the data stream, and every piece of mutable state (parameters,
optimizer moments, RNG states, pool cursors, pseudo labels) is carried in
checkpoints, so resuming from a mid-run checkpoint replays the uninterrupted
run exactly.
"""
from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import (POOL_DATASET_ID, Polarity, TASK_ORDER, read_bytes, to_polarity,
                   write_file_atomic, write_manifest)
from .errors import ConfigError, NumericError, ShapeError, VocabularyError
from .evaluation import evaluate_prompts
from .evaluation import evaluate_records  # noqa: F401  traced by name by benchmarks/tracing.py
from .masking import apply_modal_setting, sample_mcm_plan, sample_modal_setting
from .model import (config_from_json, init_params, load_checkpoint, params_from_arrays,
                    params_to_arrays, pooled_vectors, save_checkpoint)
from .model import encode  # noqa: F401  traced by name by benchmarks/tracing.py
from .objectives import (LossReport, Stage1Example, Stage2Example, assign_pseudo_labels,
                         build_centroids, generation_loss, label_token_ids, stage1_loss,
                         stage2_loss)
from .prompt import Vocab, build_prompt, build_vocab, combine_queries, tokenize

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Optimization settings. The defaults mirror the reference recipe for the
    base text backbone (lr 5e-6, batch 64, dropout 0.1, 40 epochs); tests and
    desk runs override them freely."""

    learning_rate: float = 5e-6
    batch_size: int = 64
    dropout_rate: float = 0.1
    epochs: int = 40
    seed: int = 0
    max_steps: int | None = None
    mask_prob: float = 0.5
    grad_clip: float = 1.0
    centroid_refresh_every: int = 200
    loss_weights: tuple = (1.0, 1.0, 1.0, 1.0)  # mcm, spp, ccl, cep
    checkpoint_every: int | None = None
    validate_every_epochs: int = 1
    modal_mask_augment: bool = True
    num_speakers: int = 16
    max_new_tokens: int = 8

    def validate(self):
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate {self.learning_rate} must be positive")
        if not self.grad_clip >= 0.0:
            raise ConfigError(f"grad_clip {self.grad_clip} must be non-negative (0 disables it)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if not (0.0 <= self.mask_prob <= 1.0):
            raise ConfigError(f"mask_prob {self.mask_prob} outside [0, 1]")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be non-negative")
        if len(self.loss_weights) != 4 or not all(type(w) in (int, float) for w in self.loss_weights):
            raise ConfigError("loss_weights must be four numbers (mcm, spp, ccl, cep)")
        if self.centroid_refresh_every < 1:
            raise ConfigError("centroid_refresh_every must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative (0 or null disables it)")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be positive")
        if self.num_speakers < 0:
            raise ConfigError("num_speakers must be non-negative")
        return self

    def to_json(self):
        out = asdict(self)
        out["loss_weights"] = list(self.loss_weights)
        return out

    @classmethod
    def from_json(cls, obj):
        cfg = config_from_json(cls, obj, "train config")
        cfg.loss_weights = tuple(cfg.loss_weights)
        return cfg


class Adam:
    """Plain Adam with bias correction; no schedule, fixed betas and eps."""

    def __init__(self, params, lr):
        self.lr = float(lr)
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, params, grads):
        """One update of exactly the parameters ``grads`` names, each by its
        gradient there; a parameter ``grads`` leaves out keeps its value and
        moments."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, g in grads.items():
            p = params[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def state_arrays(self):
        out = {}
        for name, arr in self.m.items():
            out[f"adam_m/{name}"] = arr
        for name, arr in self.v.items():
            out[f"adam_v/{name}"] = arr
        return out

    def load_state(self, params, arrays, t):
        self.t = int(t)
        for name, p in params.items():
            for prefix, store in (("adam_m", self.m), ("adam_v", self.v)):
                key = f"{prefix}/{name}"
                if key not in arrays or arrays[key].shape != p.data.shape:
                    raise ConfigError(f"checkpoint optimizer state missing or misshapen for {name!r}")
                store[name] = np.asarray(arrays[key], dtype=np.float64).copy()


def clip_gradients(grads, max_norm):
    """Scale the gradients of ``grads`` ({name: array}) so their global L2
    norm is at most ``max_norm``, and return the norm. Clipping rebinds each
    entry to a scaled copy and writes into no array: two names may share one
    (see ``ad.backward``). A NaN or infinite norm leaves them as they are."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and max_norm < norm < np.inf:
        factor = max_norm / norm
        for name, g in grads.items():
            grads[name] = g * factor
    return norm


# ---------------------------------------------------------------------------
# sampling state


class IndexPool:
    """A shuffled pass over a fixed index set; reshuffles (from the shared
    data stream) when exhausted, so draws are without replacement per pass."""

    def __init__(self, indices, rng):
        self.indices = np.asarray(sorted(indices), dtype=np.int64)
        if self.indices.size == 0:
            raise ConfigError("cannot build a pool over zero records")
        self.perm = rng.permutation(self.indices)
        self.cursor = 0

    def draw(self, n, rng, one_pass=False):
        """``n`` indices, reshuffling when a pass runs out; with ``one_pass``
        the fewer than n left sit the pass out, so a draw repeats no index."""
        if one_pass and self.perm.size - self.cursor < n:
            self.cursor = self.perm.size
        out = []
        while len(out) < n:
            if self.cursor == self.perm.size:
                self.perm = rng.permutation(self.indices)
                self.cursor = 0
            take = min(n - len(out), self.perm.size - self.cursor)
            out.extend(int(i) for i in self.perm[self.cursor:self.cursor + take])
            self.cursor += take
        return out

    def state(self):
        return {"perm": [int(i) for i in self.perm], "cursor": self.cursor}

    def load_state(self, state):
        perm, cursor = state["perm"], state["cursor"]
        if any(type(i) is not int for i in [*perm, cursor]):  # a bool is not an int
            raise ValueError("pool state holds a value that is not an int")
        perm = np.asarray(perm, dtype=np.int64)
        if not np.array_equal(np.sort(perm), self.indices) or not 0 <= cursor <= perm.size:
            raise ValueError("pool state does not match the corpus")
        self.perm, self.cursor = perm, cursor


class GroupPools:
    """One ``IndexPool`` per group, built in group order, plus the rotation
    that deals batch slots across the groups. ``state`` / ``load_state``
    are the checkpoint's ``pools`` field."""

    def __init__(self, groups, rng):
        self.order = list(groups)
        self.pools = {g: IndexPool(indices, rng) for g, indices in groups.items()}
        self.rotation = int(rng.integers(len(self.order)))

    def deal(self, slots):
        """Each of ``slots`` batch slots' group, round-robin from the
        rotation, which moves on past the last slot dealt."""
        dealt = [self.order[(self.rotation + s) % len(self.order)] for s in range(slots)]
        self.rotation = (self.rotation + slots) % len(self.order)
        return dealt

    def state(self):
        return {"rotation": self.rotation,
                "pools": {g.value: pool.state() for g, pool in self.pools.items()}}

    def load_state(self, state):
        rotation = state["rotation"]
        if type(rotation) is not int or not 0 <= rotation < len(self.order):
            raise ValueError(f"pool rotation {rotation!r} is not an int in [0, {len(self.order)})")
        if set(state["pools"]) != {g.value for g in self.order}:
            raise ValueError(f"pool keys {sorted(state['pools'])} are not the run's groups")
        self.rotation = rotation
        for g, pool in self.pools.items():
            pool.load_state(state["pools"][g.value])


def task_pools(records, rng):
    """One pool per task family, in ``TASK_ORDER``; every task needs a record."""
    by_task = {t: [] for t in TASK_ORDER}
    for i, record in enumerate(records):
        by_task[record.task_type].append(i)
    empty = [t.value for t in TASK_ORDER if not by_task[t]]
    if empty:
        raise ConfigError(f"task-average sampling needs records for every task; missing {empty}")
    return GroupPools(by_task, rng)


def polarity_pools(records, rng):
    """Stage-one pair pools: one pool per polarity with at least two members."""
    index_of = {pol: [] for pol in Polarity}
    for i, r in enumerate(records):
        index_of[to_polarity(r.label, r.dataset_id)].append(i)
    groups = {pol: indices for pol, indices in index_of.items() if len(indices) >= 2}
    if not groups:
        raise ConfigError("stage-one training needs a polarity pool with at least two records")
    return GroupPools(groups, rng)


def task_average_sample(pools, batch_size, rng):
    """Draw a batch of (task, index) pairs: the dealt slots give each task
    floor(batch/4) records, the remainder rotating across tasks so per-step
    and cumulative counts never differ by more than one."""
    dealt = pools.deal(batch_size)
    return [(t, idx) for t in TASK_ORDER for idx in pools.pools[t].draw(dealt.count(t), rng)]


# ---------------------------------------------------------------------------
# run state


def _spawn_rngs(seed):
    root = np.random.SeedSequence(int(seed))
    init_ss, data_ss, mask_ss, drop_ss = root.spawn(4)
    make = lambda ss: np.random.Generator(np.random.PCG64(ss))
    return {"init": make(init_ss), "data": make(data_ss),
            "mask": make(mask_ss), "dropout": make(drop_ss)}


def _rng_states(rngs):
    return {k: g.bit_generator.state for k, g in rngs.items() if k != "init"}


def _restore_rngs(states):
    """The saved ``data``, ``mask`` and ``dropout`` streams, and no others."""
    if set(states) != {"data", "mask", "dropout"}:
        raise ValueError(f"streams {sorted(states)} are not data, mask and dropout")
    out = {}
    for name, state in states.items():
        g = np.random.Generator(np.random.PCG64())
        g.bit_generator.state = state
        out[name] = g
    return out


def _meta_field(meta, key, kind, source):
    """``meta[key]`` if it is a ``kind`` (a bool is never an int), else a ConfigError."""
    value = meta.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{source}: checkpoint field {key!r} is missing or not a {kind.__name__}")
    return value


def _parsed_field(meta, key, parse, source):
    """``parse(meta.get(key))``, with any failure to parse a ConfigError."""
    try:
        return parse(meta.get(key))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: checkpoint field {key!r} is malformed "
                          f"({type(exc).__name__}: {exc})") from exc


def _fit_config(config, vocab, registry, source):
    """``config`` if it fits ``vocab`` and ``registry``: the vocabulary size,
    the dataset count and every feature width a dataset declares. ``source``
    names the config in the ConfigError raised otherwise."""
    if config.vocab_size != len(vocab):
        raise ConfigError(f"{source} vocab_size {config.vocab_size} != vocabulary size {len(vocab)}")
    if config.num_datasets != len(registry):
        raise ConfigError(f"{source} num_datasets {config.num_datasets} != registry size {len(registry)}")
    for dataset_id in registry.dataset_ids:
        spec = registry.spec(dataset_id)
        for field in ("acoustic_dim", "visual_dim"):
            declared, expected = getattr(spec, field), getattr(config, field)
            if declared is not None and declared != expected:
                raise ConfigError(f"dataset {dataset_id!r} declares {field} {declared}, "
                                  f"{source} expects {expected}")
    return config


def load_model(path, registry):
    """Read a training checkpoint for ``registry``. Returns (config, params,
    vocab, arrays, meta). A missing file, vocabulary fields that are missing
    or mistyped, a model config that does not fit the vocabulary and the
    registry (``_fit_config``), or a parameter table that does not match the
    config's is a ConfigError."""
    config, arrays, meta = load_checkpoint(path)
    tokens = _meta_field(meta, "vocab", list, path)
    if not all(isinstance(t, str) for t in tokens):
        raise ConfigError(f"{path}: checkpoint vocabulary holds a non-string token")
    try:
        vocab = Vocab(tokens, _meta_field(meta, "vocab_datasets", int, path),
                      _meta_field(meta, "vocab_speakers", int, path))
    except VocabularyError as exc:
        raise ConfigError(f"{path}: bad checkpoint vocabulary ({exc})") from exc
    _fit_config(config, vocab, registry, f"checkpoint {path}")
    try:
        params = params_from_arrays(config, arrays)
    except ShapeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config, params, vocab, arrays, meta


class _Run:
    """Run state shared by the three stages, and the loop that drives them."""

    def __init__(self, stage, records, registry, model_config, train_config, out_dir,
                 init_checkpoint=None, resume_from=None, val_records=None):
        if not records:
            raise ConfigError("training corpus is empty")
        self.stage = stage
        self.records = records
        self.registry = registry
        self.train_config = train_config.validate()
        self.out_dir = Path(out_dir)
        self.step = 0
        self.pseudo = None
        self.rngs = _spawn_rngs(train_config.seed)
        self.resume_from = resume_from
        self._resume_meta = None

        # the model, fresh from ``model_config`` or whole from a checkpoint
        source = resume_from or init_checkpoint
        if source is None:
            self.vocab = build_vocab(records, registry, num_speakers=train_config.num_speakers)
            config = _fit_config(replace(model_config, dropout_rate=train_config.dropout_rate,
                                         vocab_size=model_config.vocab_size or len(self.vocab),
                                         num_datasets=model_config.num_datasets or len(registry)),
                                 self.vocab, registry, "model config")
            self.params = init_params(config, self.rngs["init"])
        else:
            config, self.params, self.vocab, arrays, meta = load_model(source, registry)
            config = replace(config, dropout_rate=train_config.dropout_rate)
        self.model_config = config
        self.adam = Adam(self.params, train_config.learning_rate)
        # the plan's prompt tables: every record's prompt, and every validation
        # record's (fine-tuning validates on the training records without
        # one), fixed for the run, so a record that cannot fit fails here,
        # before the run writes anything
        self.prompts = [build_prompt(r, self.vocab, registry, config.max_len) for r in records]
        self.val_prompts = self.prompts if val_records is None else \
            [build_prompt(r, self.vocab, registry, config.max_len) for r in val_records]

        if resume_from is not None:
            self._restore(meta, arrays)

    def _restore(self, meta, arrays):
        """Step, optimizer and pseudo-label state of the run being resumed;
        stage two checks the pseudo labels against its table, and ``drive``
        restores the RNG and pool state."""
        source = self.resume_from
        if meta.get("stage") != self.stage:
            raise ConfigError(
                f"checkpoint holds {meta.get('stage')!r} state, cannot resume {self.stage!r}")
        self.step = _meta_field(meta, "step", int, source)
        if self.step < 0:
            raise ConfigError(f"{source}: checkpoint field 'step' {self.step} is negative")
        adam_t = _meta_field(meta, "adam_t", int, source)
        if adam_t != self.step:  # one Adam update per step
            raise ConfigError(f"{source}: checkpoint field 'adam_t' {adam_t} is not its step {self.step}")
        self.adam.load_state(self.params, arrays, adam_t)
        self.pseudo = arrays.get("pseudo")
        self._resume_meta = meta

    def open_log(self, path):
        """Open a per-step JSONL log for appending. A fresh run starts it
        empty; a resumed run keeps the lines up to its checkpoint step, so
        the log ends up as an uninterrupted run's would. A line that is torn,
        not UTF-8 or not JSON ends the kept lines. They are swapped in whole,
        so a crash while they are written loses none."""
        kept = []
        if self._resume_meta is not None and path.exists():
            for line in read_bytes(path, "training log").splitlines(keepends=True):
                try:
                    step = json.loads(line.decode("utf-8"))["step"]
                except (ValueError, KeyError, TypeError):
                    break  # a line torn by the interruption, or not one of ours
                if not line.endswith(b"\n") or step > self.step:
                    break
                kept.append(line)
        write_file_atomic(path, kept, sync=True)
        return open(path, "a", encoding="utf-8")

    @staticmethod
    def write_line(fh, obj):
        """Append ``obj`` to an open log as one JSON line. A failed write (a
        full disk, say) is the one-line ConfigError ``write_file_atomic``
        raises. The handle is closed first, so the bytes a failed flush left
        in its buffer cannot fail again, as a raw OSError, when the run
        closes its logs."""
        try:
            fh.write(json.dumps(obj) + "\n")
            fh.flush()
        except OSError as exc:
            with contextlib.suppress(OSError):
                fh.close()
            raise ConfigError(f"cannot write {fh.name} ({exc.strerror})") from None

    def log_step(self, fh, report):
        self.write_line(fh, {"step": self.step, "stage": self.stage, **asdict(report),
                             "lr": self.train_config.learning_rate})

    def check_finite(self, report):
        terms = asdict(report)
        if not all(np.isfinite(v) for v in terms.values()):
            raise NumericError(f"non-finite loss at step {self.step}: "
                               + " ".join(f"{k}={v}" for k, v in terms.items()))

    def optimize(self, total):
        """Backpropagate ``total``, clip, and take one Adam step, passing the
        gradients by value, in ``param_layout`` order: a parameter the loss
        does not reach gets none and keeps its value and moments. A NaN or
        infinite gradient norm is a NumericError raised before the step, so
        neither the parameters nor the moments, nor a checkpoint, take it."""
        leaves = ad.backward(total)
        grads = {name: leaves[p] for name, p in self.params.items() if p in leaves}
        del leaves  # so an entry clipping rebinds frees its unscaled array
        norm = clip_gradients(grads, self.train_config.grad_clip)
        if not np.isfinite(norm):
            raise NumericError(f"non-finite gradient norm {norm} at step {self.step}")
        self.adam.step(self.params, grads)

    def save(self, path, pools_state, copies=()):
        meta = {
            "stage": self.stage,
            "step": self.step,
            "vocab": self.vocab.tokens,
            "vocab_datasets": self.vocab.num_datasets,
            "vocab_speakers": self.vocab.num_speakers,
            "adam_t": self.adam.t,
            "rng": _rng_states(self.rngs),
            "pools": pools_state,
            "train_config": self.train_config.to_json(),
        }
        arrays = dict(params_to_arrays(self.params))
        arrays.update(self.adam.state_arrays())
        if self.pseudo is not None:
            arrays["pseudo"] = self.pseudo
        save_checkpoint(path, self.model_config, arrays, meta=meta, copies=copies)

    def drive(self, pools, units_per_pass, step, validate=None):
        """Run the stage to its last step and return the final checkpoint path.

        ``pools`` is the sampling state saved with each checkpoint,
        ``units_per_pass`` the number of samples one pass over the data holds,
        and ``step()`` draws a batch and returns its (LossReport, total
        tensor). ``validate(fh)``, when given, runs after every step with the
        open ``val_metrics.jsonl``. The run's first write is its
        ``manifest.json``, which hashes the configs it resolved, once every
        check has passed. Logs are closed even when a step fails."""
        cfg = self.train_config
        if self._resume_meta is not None:
            # the stage built ``pools`` from the fresh data stream; the resumed
            # streams and pools replace both together
            self.rngs.update(_parsed_field(self._resume_meta, "rng", _restore_rngs, self.resume_from))
            _parsed_field(self._resume_meta, "pools", pools.load_state, self.resume_from)
        write_manifest(self.out_dir, self.stage, cfg.seed,
                       {"train": cfg.to_json(), "model": self.model_config.to_json()})
        total_steps = (cfg.max_steps if cfg.max_steps is not None
                       else cfg.epochs * max(1, units_per_pass // cfg.batch_size))
        logs, due = [], []
        try:
            logs.append(self.open_log(self.out_dir / "metrics.jsonl"))
            if validate is not None:
                logs.append(self.open_log(self.out_dir / "val_metrics.jsonl"))
            while self.step < total_steps:
                self.step += 1
                report, total = step()
                self.check_finite(report)
                self.optimize(total)
                del total  # the step's graph: drop it before the next step builds its own
                self.log_step(logs[0], report)
                if cfg.checkpoint_every and self.step % cfg.checkpoint_every == 0:
                    due = [self.out_dir / f"checkpoint_step{self.step}.ckpt"]
                    if self.step < total_steps:  # the last step's is written with the final one
                        self.save(due.pop(), pools.state())
                if validate is not None:
                    validate(logs[1])
        finally:
            for fh in logs:
                fh.close()
        # a last step that is also a checkpoint step serializes its state once, for both files
        paths = due + [self.out_dir / "checkpoint.ckpt"]
        self.save(paths[0], pools.state(), copies=paths[1:])
        return paths[-1]


def _augmented_prompt(run, ps):
    """``ps``; with augmentation on, under a sampled modal setting."""
    if run.train_config.modal_mask_augment:
        ps = apply_modal_setting(ps, sample_modal_setting(ps, run.rngs["mask"]))
    return ps


def run_pretrain_stage1(records, registry, model_config, train_config, out_dir, resume_from=None):
    """First pre-training stage on same-polarity pairs, each one prompt
    joined from the two records' table prompts by ``combine_queries``.
    Registry must declare the reserved pool dataset. Returns the final
    checkpoint path."""
    if POOL_DATASET_ID not in registry:
        raise ConfigError(
            f"stage one needs the reserved dataset {POOL_DATASET_ID!r} declared in the registry")
    run = _Run("pretrain1", records, registry, model_config, train_config, out_dir,
               resume_from=resume_from)
    cfg = run.train_config
    pools = polarity_pools(records, run.rngs["data"])

    def pair(i, j):
        return combine_queries(run.prompts[i], run.prompts[j], run.vocab, registry,
                               run.model_config.max_len)

    # only frames can make a pair overflow, so each pool's most-framed pair,
    # its two most-framed records, must fit before the run's first write
    for pool in pools.pools.values():
        *_, i, j = sorted(pool.indices, key=lambda k: run.prompts[k].frame_count)
        pair(i, j)

    def step():
        batch = []
        for pol in pools.deal(cfg.batch_size):
            drawn = pools.pools[pol].draw(2, run.rngs["data"], one_pass=True)
            ps = _augmented_prompt(run, pair(*drawn))
            plan = sample_mcm_plan(ps, cfg.mask_prob, run.rngs["mask"])
            batch.append(Stage1Example(prompt=ps, plan=plan, polarity=pol))
        return stage1_loss(batch, run.params, run.model_config, run.vocab,
                           weights=cfg.loss_weights[:3], train=True, rng=run.rngs["dropout"])

    return run.drive(pools, 2 * sum(p.indices.size // 2 for p in pools.pools.values()), step)


def run_pretrain_stage2(records, registry, model_config, train_config, out_dir,
                        init_checkpoint=None, resume_from=None):
    """Second pre-training stage (reconstruction + cross-task prediction) on
    original records, normally initialized from the stage-one checkpoint."""
    run = _Run("pretrain2", records, registry, model_config, train_config, out_dir,
               init_checkpoint=init_checkpoint, resume_from=resume_from)
    cfg = run.train_config
    pool = IndexPool(range(len(records)), run.rngs["data"])
    # the label table (per task in TASK_ORDER, its sorted gold keys) and each
    # record's task column and gold index in it, fixed for the run
    tasks = [t for t in TASK_ORDER if any(r.task_type is t for r in records)]
    own = np.array([tasks.index(r.task_type) for r in records])
    keys = np.array([registry.spec(r.dataset_id).answer.render(r.label) for r in records])
    labels, gold = {}, np.empty(len(records), dtype=np.int64)
    for t, task in enumerate(tasks):
        labels[task], gold[own == t] = np.unique(keys[own == t], return_inverse=True)
    label_ids = label_token_ids(labels, run.vocab)
    # restored labels are checked before any log opens; none are due before step 1
    pseudo = run.pseudo
    fits = not run.step if pseudo is None else (
        pseudo.dtype == np.int64 and pseudo.shape == (len(records), len(tasks))
        and (pseudo >= 0).all() and (pseudo < [len(labels[t]) for t in tasks]).all())
    if not fits:
        raise ConfigError(f"{run.resume_from}: checkpoint array 'pseudo' is missing or does not "
                          f"fit the corpus's {len(records)} records and their label table")

    def step():
        if run.pseudo is None or (run.step - 1) % cfg.centroid_refresh_every == 0:
            # frozen snapshot: clean full-corpus encodings with all modalities give
            # per-task centroids, then the pseudo labels; only the labels are kept
            pooled = pooled_vectors(run.prompts, run.params, run.model_config, run.vocab)
            run.pseudo = assign_pseudo_labels(pooled, build_centroids(pooled, own, gold), own, gold)
        batch = []
        for idx in pool.draw(cfg.batch_size, run.rngs["data"]):
            ps = _augmented_prompt(run, run.prompts[idx])
            plan = sample_mcm_plan(ps, cfg.mask_prob, run.rngs["mask"])
            batch.append(Stage2Example(prompt=ps, plan=plan, pseudo=run.pseudo[idx]))
        return stage2_loss(batch, run.params, run.model_config, run.vocab, label_ids,
                           weights=(cfg.loss_weights[0], cfg.loss_weights[3]),
                           train=True, rng=run.rngs["dropout"])

    return run.drive(pool, len(records), step)


def gold_token_ids(record, registry, vocab):
    spec = registry.spec(record.dataset_id)
    return tokenize(spec.answer.render(record.label), vocab)


def run_finetune(records, registry, model_config, train_config, out_dir,
                 init_checkpoint=None, val_records=None, resume_from=None):
    """Answer-generation fine-tuning with task-average batch sampling and
    modal-combination augmentation. Validation metrics for every registered
    dataset are appended to val_metrics.jsonl once per validation epoch."""
    run = _Run("finetune", records, registry, model_config, train_config, out_dir,
               init_checkpoint=init_checkpoint, resume_from=resume_from, val_records=val_records)
    cfg = run.train_config
    pools = task_pools(records, run.rngs["data"])
    golds = [gold_token_ids(r, registry, run.vocab) for r in records]
    steps_per_epoch = max(1, len(records) // cfg.batch_size)

    def step():
        batch = [(_augmented_prompt(run, run.prompts[idx]), golds[idx])
                 for _, idx in task_average_sample(pools, cfg.batch_size, run.rngs["data"])]
        total = generation_loss(batch, run.params, run.model_config, run.vocab,
                                train=True, rng=run.rngs["dropout"])
        return LossReport(total=total.item()), total

    def validate(val_fh):
        epoch, rest = divmod(run.step, steps_per_epoch)
        if rest or cfg.validate_every_epochs <= 0 or epoch % cfg.validate_every_epochs:
            return
        results = evaluate_prompts(val_records if val_records is not None else records,
                                   run.val_prompts, run.params, run.model_config, run.vocab,
                                   registry, max_new=cfg.max_new_tokens)
        run.write_line(val_fh, {"step": run.step, "epoch": epoch,
                                "datasets": {d: (results[d].metrics if d in results else None)
                                             for d in registry.dataset_ids}})

    return run.drive(pools, len(records), step, validate)
