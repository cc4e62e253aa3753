"""Training: two pre-training stages and answer fine-tuning on one driver.

``_Run.drive`` owns the loop every stage shares: restore pool state on
resume, step, check the loss is finite, back-propagate, clip, update, log,
save periodically and finally write the last checkpoint. A stage supplies
only its sampling pool, the number of units one pass over the data holds, a
step function that draws a batch and returns its loss, and (fine-tuning
only) a validation hook.

Runs are bit-deterministic for a fixed (seed, config, corpus): RNG streams are
spawned from the seed per concern (data order, masking, dropout, init), pools
reshuffle from the data stream, and every piece of mutable state (parameters,
optimizer moments, RNG states, pool cursors, centroid snapshots) is carried in
checkpoints, so resuming from a mid-run checkpoint replays the uninterrupted
run exactly.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import POOL_DATASET_ID, Polarity, TaskType, TASK_ORDER, combine_queries, to_polarity
from .errors import ConfigError, NumericError, VocabularyError
from .evaluation import evaluate_records
from .masking import apply_modal_setting, sample_mcm_plan, sample_modal_setting
# ``encode`` is no longer called here; it stays a module global because the
# benchmark's tracer (benchmarks/tracing.py) patches it by name.
from .model import (config_from_json, encode, init_params, load_checkpoint,  # noqa: F401
                    params_from_arrays, params_to_arrays, pooled_vectors, save_checkpoint)
from .objectives import (CentroidIndex, LossReport, PseudoLabelSet, Stage1Example,
                         Stage2Example, assign_pseudo_labels, build_centroids, generation_loss,
                         stage1_loss, stage2_loss)
from .prompt import Vocab, build_prompt, build_vocab, tokenize

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

    def step(self, params):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
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


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    norm = ad.global_grad_norm(params.values())
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
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

    def draw(self, n, rng):
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
        perm = np.asarray(state["perm"], dtype=np.int64)
        cursor = int(state["cursor"])
        if not np.array_equal(np.sort(perm), self.indices) or not 0 <= cursor <= perm.size:
            raise ValueError("pool state does not match the corpus")
        self.perm, self.cursor = perm, cursor


class _GroupPools:
    """One ``IndexPool`` per group, built in group order, plus the rotation
    that deals batch slots across the groups. ``state`` / ``load_state``
    are the checkpoint's ``pools`` field."""

    def __init__(self, groups, rng):
        self.order = list(groups)
        self.pools = {g: IndexPool(indices, rng) for g, indices in groups.items()}
        self.rotation = int(rng.integers(len(self.order)))

    def state(self):
        return {"rotation": self.rotation,
                "pools": {g.value: pool.state() for g, pool in self.pools.items()}}

    def load_state(self, state):
        self.rotation = int(state["rotation"])
        for g, pool in self.pools.items():
            pool.load_state(state["pools"][g.value])


class TaskPools(_GroupPools):
    """One pool per task family; the rotation deals out the batch remainder
    fairly across steps."""

    def __init__(self, records, rng):
        by_task = {t: [] for t in TASK_ORDER}
        for i, record in enumerate(records):
            by_task[record.task_type].append(i)
        empty = [t.value for t in TASK_ORDER if not by_task[t]]
        if empty:
            raise ConfigError(f"task-average sampling needs records for every task; missing {empty}")
        super().__init__(by_task, rng)


def task_average_sample(task_pools, batch_size, rng):
    """Draw a batch with per-task counts equal to floor(batch/4), the
    remainder rotating across tasks so per-step and cumulative counts never
    differ by more than one."""
    base = batch_size // len(TASK_ORDER)
    rem = batch_size - base * len(TASK_ORDER)
    counts = {t: base for t in TASK_ORDER}
    for i in range(rem):
        counts[TASK_ORDER[(task_pools.rotation + i) % len(TASK_ORDER)]] += 1
    task_pools.rotation = (task_pools.rotation + rem) % len(TASK_ORDER)
    batch = []
    for t in TASK_ORDER:
        if counts[t] == 0:
            continue
        for idx in task_pools.pools[t].draw(counts[t], rng):
            batch.append((t, idx))
    return batch


class PolarityPools(_GroupPools):
    """Stage-one pair pools: one pool per polarity with at least two
    members; the rotation cycles batch slots over the polarities."""

    def __init__(self, records, rng):
        index_of = {pol: [] for pol in Polarity}
        for i, r in enumerate(records):
            index_of[to_polarity(r.label, r.dataset_id)].append(i)
        groups = {pol: indices for pol, indices in index_of.items() if len(indices) >= 2}
        if not groups:
            raise ConfigError("stage-one training needs a polarity pool with at least two records")
        super().__init__(groups, rng)

    def draw_pairs(self, n_pairs, rng):
        """n_pairs (polarity, i, j) triples, cycling pools across slots. A
        pool exhausted mid-pass pairs its tail with the next pass head."""
        out = []
        for s in range(n_pairs):
            pol = self.order[(self.rotation + s) % len(self.order)]
            i, j = self.pools[pol].draw(2, rng)
            out.append((pol, i, j))
        self.rotation = (self.rotation + n_pairs) % len(self.order)
        return out

    def pairs_per_pass(self):
        return sum(self.pools[pol].indices.size // 2 for pol in self.order)


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
    out = {}
    for name, state in states.items():
        g = np.random.Generator(np.random.PCG64())
        g.bit_generator.state = state
        out[name] = g
    return out


def _centroids_to_json(index):
    if index is None:
        return None
    out = {}
    for task in index.tasks():
        out[task.value] = {lab: [float(x) for x in vec] for lab, vec in index.by_task[task]}
    return out


def _centroids_from_json(obj):
    if obj is None:
        return None
    by_task = {}
    for task_value, groups in obj.items():
        task = TaskType(task_value)
        by_task[task] = tuple(sorted(((lab, np.asarray(vec, dtype=np.float64))
                                      for lab, vec in groups.items()), key=lambda x: x[0]))
    return CentroidIndex(by_task=by_task)


def _pseudo_to_json(pseudo_list):
    if pseudo_list is None:
        return None
    return [{t.value: lab for t, lab in p.labels.items()} for p in pseudo_list]


def _pseudo_from_json(obj):
    if obj is None:
        return None
    return [PseudoLabelSet(labels={TaskType(k): v for k, v in entry.items()}) for entry in obj]


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
    or mistyped, or a model config that does not fit the vocabulary and the
    registry (``_fit_config``) is a ConfigError."""
    if not Path(path).exists():
        raise ConfigError(f"checkpoint not found: {path}")
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
    return config, params_from_arrays(config, arrays), vocab, arrays, meta


class _Run:
    """Run state shared by the three stages, and the loop that drives them."""

    def __init__(self, stage, records, registry, model_config, train_config, out_dir,
                 init_checkpoint=None, resume_from=None):
        if not records:
            raise ConfigError("training corpus is empty")
        self.stage = stage
        self.records = records
        self.registry = registry
        self.train_config = train_config.validate()
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.step = 0
        self.centroids = None
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

        if resume_from is not None:
            self._restore(meta, arrays)

    def _restore(self, meta, arrays):
        """Step, optimizer, RNG, centroid and pseudo-label state of the run
        being resumed."""
        source = self.resume_from
        if meta.get("stage") != self.stage:
            raise ConfigError(
                f"checkpoint holds {meta.get('stage')!r} state, cannot resume {self.stage!r}")
        self.step = _meta_field(meta, "step", int, source)
        self.adam.load_state(self.params, arrays, _meta_field(meta, "adam_t", int, source))
        self.rngs.update(_parsed_field(meta, "rng", _restore_rngs, source))
        self.centroids = _parsed_field(meta, "centroids", _centroids_from_json, source)
        self.pseudo = _parsed_field(meta, "pseudo", _pseudo_from_json, source)
        if (self.pseudo is None) != (self.centroids is None):
            raise ConfigError(f"{source}: checkpoint fields 'pseudo' and 'centroids' "
                              f"must be both set or both null")
        if self.pseudo is not None and len(self.pseudo) != len(self.records):
            raise ConfigError(f"{source}: checkpoint field 'pseudo' holds {len(self.pseudo)} "
                              f"labels for a corpus of {len(self.records)} records")
        self._resume_meta = meta

    def open_log(self, path):
        """Open a per-step JSONL log for writing. A fresh run starts it
        empty; a resumed run keeps the lines up to its checkpoint step and
        appends, so the log ends up as an uninterrupted run's would."""
        kept = []
        if self._resume_meta is not None and path.exists():
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        step = json.loads(line)["step"]
                    except (ValueError, KeyError, TypeError):
                        break  # a line torn by the interruption
                    if not line.endswith("\n") or step > self.step:
                        break
                    kept.append(line)
        fh = open(path, "w", encoding="utf-8")
        fh.writelines(kept)
        fh.flush()
        return fh

    def log_step(self, fh, report):
        line = json.dumps({
            "step": self.step,
            "stage": self.stage,
            "mcm": report.mcm,
            "spp": report.spp,
            "ccl": report.ccl,
            "cep": report.cep,
            "total": report.total,
            "lr": self.train_config.learning_rate,
        })
        fh.write(line + "\n")
        fh.flush()

    def check_finite(self, report):
        vals = (report.mcm, report.spp, report.ccl, report.cep, report.total)
        if not all(np.isfinite(v) for v in vals):
            raise NumericError(
                f"non-finite loss at step {self.step}: mcm={report.mcm} spp={report.spp} "
                f"ccl={report.ccl} cep={report.cep} total={report.total}")

    def optimize(self, total):
        ad.zero_grads(self.params.values())
        ad.backward(total)
        clip_gradients(self.params, self.train_config.grad_clip)
        self.adam.step(self.params)

    def save(self, path, pools_state):
        meta = {
            "stage": self.stage,
            "step": self.step,
            "vocab": self.vocab.tokens,
            "vocab_datasets": self.vocab.num_datasets,
            "vocab_speakers": self.vocab.num_speakers,
            "adam_t": self.adam.t,
            "rng": _rng_states(self.rngs),
            "pools": pools_state,
            "centroids": _centroids_to_json(self.centroids),
            "pseudo": _pseudo_to_json(self.pseudo),
            "train_config": self.train_config.to_json(),
        }
        arrays = dict(params_to_arrays(self.params))
        arrays.update(self.adam.state_arrays())
        save_checkpoint(path, self.model_config, arrays, meta=meta)
        return Path(path)

    def pool_rng(self):
        """Generator for initial pool construction. When resuming, pool state
        is about to be overwritten from the checkpoint, so construction must
        not consume the restored data stream."""
        return self.rngs["data"] if self._resume_meta is None else np.random.default_rng(0)

    def drive(self, pools, units_per_pass, step, validate=None):
        """Run the stage to its last step and return the final checkpoint path.

        ``pools`` is the sampling state saved with each checkpoint,
        ``units_per_pass`` the number of samples one pass over the data holds,
        and ``step()`` draws a batch and returns its (LossReport, total
        tensor). ``validate(fh)``, when given, runs after every step with the
        open ``val_metrics.jsonl``. Logs are closed even when a step fails."""
        cfg = self.train_config
        if self._resume_meta is not None:
            _parsed_field(self._resume_meta, "pools", pools.load_state, self.resume_from)
        total_steps = (cfg.max_steps if cfg.max_steps is not None
                       else cfg.epochs * max(1, units_per_pass // cfg.batch_size))
        logs = []
        try:
            logs.append(self.open_log(self.out_dir / "metrics.jsonl"))
            if validate is not None:
                logs.append(self.open_log(self.out_dir / "val_metrics.jsonl"))
            while self.step < total_steps:
                self.step += 1
                report, total = step()
                self.check_finite(report)
                self.optimize(total)
                self.log_step(logs[0], report)
                if cfg.checkpoint_every and self.step % cfg.checkpoint_every == 0:
                    self.save(self.out_dir / f"checkpoint_step{self.step}.ckpt", pools.state())
                if validate is not None:
                    validate(logs[1])
        finally:
            for fh in logs:
                fh.close()
        return self.save(self.out_dir / "checkpoint.ckpt", pools.state())


def _augmented_prompt(run, record):
    """The record's prompt; with augmentation on, under a sampled modal setting."""
    ps = build_prompt(record, run.vocab, run.registry, run.model_config.max_len)
    if run.train_config.modal_mask_augment:
        ps = apply_modal_setting(ps, sample_modal_setting(ps, run.rngs["mask"]))
    return ps


def run_pretrain_stage1(records, registry, model_config, train_config, out_dir, resume_from=None):
    """First pre-training stage on combined same-polarity query pairs.
    Registry must declare the reserved pool dataset. Returns the final
    checkpoint path."""
    if POOL_DATASET_ID not in registry:
        raise ConfigError(
            f"stage one needs the reserved dataset {POOL_DATASET_ID!r} declared in the registry")
    run = _Run("pretrain1", records, registry, model_config, train_config, out_dir,
               resume_from=resume_from)
    cfg = run.train_config
    pools = PolarityPools(records, run.pool_rng())

    def step():
        batch = []
        for pol, i, j in pools.draw_pairs(cfg.batch_size, run.rngs["data"]):
            ps = _augmented_prompt(run, combine_queries(records[i], records[j]))
            plan = sample_mcm_plan(ps, cfg.mask_prob, run.rngs["mask"], run.vocab)
            batch.append(Stage1Example(prompt=ps, plan=plan, polarity=pol))
        return stage1_loss(batch, run.params, run.model_config, run.vocab,
                           weights=cfg.loss_weights[:3], train=True, rng=run.rngs["dropout"])

    return run.drive(pools, 2 * pools.pairs_per_pass(), step)


def _refresh_centroids(run):
    """Frozen-snapshot pass: clean encodings of the full corpus with all
    modalities, grouped by gold label, plus per-record pseudo assignments."""
    prompts = [build_prompt(r, run.vocab, run.registry, run.model_config.max_len)
               for r in run.records]
    pooled = pooled_vectors(prompts, run.params, run.model_config, run.vocab)
    keys = [run.registry.spec(r.dataset_id).answer.render(r.label) for r in run.records]
    run.centroids = build_centroids([(r.task_type, key, vec)
                                     for r, key, vec in zip(run.records, keys, pooled)])
    run.pseudo = assign_pseudo_labels(pooled, run.centroids,
                                      [r.task_type for r in run.records], keys)


def run_pretrain_stage2(records, registry, model_config, train_config, out_dir,
                        init_checkpoint=None, resume_from=None):
    """Second pre-training stage (reconstruction + cross-task prediction) on
    original records, normally initialized from the stage-one checkpoint."""
    run = _Run("pretrain2", records, registry, model_config, train_config, out_dir,
               init_checkpoint=init_checkpoint, resume_from=resume_from)
    cfg = run.train_config
    pool = IndexPool(range(len(records)), run.pool_rng())

    def step():
        if run.centroids is None or (run.step - 1) % cfg.centroid_refresh_every == 0:
            _refresh_centroids(run)
        batch = []
        for idx in pool.draw(cfg.batch_size, run.rngs["data"]):
            ps = _augmented_prompt(run, records[idx])
            plan = sample_mcm_plan(ps, cfg.mask_prob, run.rngs["mask"], run.vocab)
            batch.append(Stage2Example(prompt=ps, plan=plan, pseudo=run.pseudo[idx]))
        return stage2_loss(batch, run.params, run.model_config, run.vocab, run.centroids,
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
               init_checkpoint=init_checkpoint, resume_from=resume_from)
    cfg = run.train_config
    pools = TaskPools(records, run.pool_rng())
    steps_per_epoch = max(1, len(records) // cfg.batch_size)

    def step():
        batch = [(_augmented_prompt(run, records[idx]),
                  gold_token_ids(records[idx], registry, run.vocab))
                 for _, idx in task_average_sample(pools, cfg.batch_size, run.rngs["data"])]
        total = generation_loss(batch, run.params, run.model_config, run.vocab,
                                train=True, rng=run.rngs["dropout"])
        return LossReport(total=total.item()), total

    def validate(val_fh):
        epoch, rest = divmod(run.step, steps_per_epoch)
        if rest or cfg.validate_every_epochs <= 0 or epoch % cfg.validate_every_epochs:
            return
        results = evaluate_records(val_records if val_records is not None else records,
                                   run.params, run.model_config, run.vocab, registry,
                                   max_new=cfg.max_new_tokens)
        line = {"step": run.step, "epoch": epoch,
                "datasets": {d: (results[d].metrics if d in results else None)
                             for d in registry.dataset_ids}}
        val_fh.write(json.dumps(line) + "\n")
        val_fh.flush()

    return run.drive(pools, len(records), step, validate)
