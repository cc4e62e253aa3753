"""The benchmark's three workloads and the checks on their outputs.

Each workload is one closed-loop caller of sentigen's public API. Its inputs
come from the run seed alone. A workload does its work in units (a round of
both pre-training stages, one fine-tune-to-target job, or one decoding pass
over the corpus); the number of units comes from the requested seconds, never
from the clock, so the work of a run, and every count the trace takes, is the
same for the same seed and seconds.

Every unit's outputs are checked after it is timed, and each check counts as
an operation in the run's tally, as does each training step and each decoded
record.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import sentigen.cli as cli
import sentigen.data as data
import sentigen.evaluation as evaluation
import sentigen.model as model
import sentigen.prompt as prompt
import sentigen.training as training
from sentigen.errors import DecodeError


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{note}: {failed} of {attempted} failed")

    def check(self, ok, note):
        self.add(1, 0 if ok else 1, note)
        return ok


@dataclass
class Unit:
    """One timed unit: its wall time, work and time per phase, and a digest
    of everything it wrote, for the determinism checks."""

    wall: float
    phases: dict                                   # phase -> [items, seconds]
    digest: str = ""
    extra: dict = field(default_factory=dict)


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def seed_for(*parts):
    """A training seed derived from integers such as a unit index."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def check_log(path, first, last, tally, note):
    """The log ends with exactly the steps ``first..last``, in order, and
    every loss it holds is finite. Each requested step is one operation."""
    want = last - first + 1
    try:
        rows = [json.loads(line) for line in Path(path).read_text("utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        tally.add(want, want, f"{note}: unreadable log ({exc})")
        return
    steps = [r.get("step") for r in rows]
    if not steps or steps[-want:] != list(range(first, last + 1)) \
            or steps != list(range(steps[0], last + 1)):
        tally.add(want, want, f"{note}: logged steps {steps} where {first}..{last} were asked")
        return
    losses = ("mcm", "spp", "ccl", "cep", "total")
    bad = sum(1 for row in rows[-want:]
              if not all(isinstance(row[k], (int, float)) and math.isfinite(row[k]) for k in losses))
    tally.add(want, bad, f"{note}: non-finite losses")


def check_checkpoint(path, scratch, tally):
    """The checkpoint reloads through ``load_checkpoint`` and
    ``params_from_arrays`` with every array intact, and saving what was
    loaded gives the same bytes back."""
    try:
        config, arrays, meta = model.load_checkpoint(path)
        params = model.params_from_arrays(config, arrays)
        same = all(np.array_equal(t.data, arrays[f"param/{name}"]) and
                   t.data.dtype == arrays[f"param/{name}"].dtype
                   for name, t in params.items())
        resaved = Path(scratch) / "resaved.ckpt"
        model.save_checkpoint(resaved, config, arrays, meta=meta)
        same = same and resaved.read_bytes() == Path(path).read_bytes()
        resaved.unlink()
    except Exception as exc:  # any failure to reload is a failed check
        return tally.check(False, f"checkpoint {Path(path).name} does not reload: {exc!r}")
    return tally.check(same, f"checkpoint {Path(path).name} does not round-trip")


def load_model(path):
    config, arrays, meta = model.load_checkpoint(path)
    vocab = prompt.Vocab(meta["vocab"], meta["vocab_datasets"], meta["vocab_speakers"])
    return model.params_from_arrays(config, arrays), config, vocab


def make_inputs(out_dir, seed, per_task):
    corpus, registry_path = cli.make_synthetic_corpus(out_dir, seed=seed, per_task=per_task)
    registry = data.Registry.load(registry_path)
    return data.load_corpus(corpus, registry), registry


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Common shape: ``setup`` (timed for setup_s), ``warm_up`` (untimed),
    ``run_unit`` (timed) and ``check_unit`` (untimed). Checks report into
    ``tally``."""

    name = ""
    unit_seconds = 1.0        # nominal cost of one unit on a 2-core x86 host
    same_seed_units = True    # every unit repeats the same work

    def __init__(self, seed, smoke, tally):
        self.seed = seed
        self.smoke = smoke
        self.tally = tally

    def units_for(self, seconds):
        if self.smoke:
            return 2 if self.same_seed_units else 1
        return max(1, round(seconds / self.unit_seconds))

    def setup(self, work):
        """Inputs for the run, plus the vocabulary and model set-up the
        training loops repeat inside every call."""
        self.records, self.registry = make_inputs(work / "corpus", self.seed, self.per_task)
        vocab = prompt.build_vocab(self.records, self.registry,
                                   num_speakers=self.train_config.num_speakers)
        config = replace(self.model_config, vocab_size=len(vocab),
                         num_datasets=len(self.registry))
        model.init_params(config, np.random.default_rng(self.seed))

    def warm_up(self, work):
        raise NotImplementedError

    def run_unit(self, index, work):
        raise NotImplementedError

    def check_unit(self, unit, index, work):
        raise NotImplementedError

    def finish(self, units):
        """Checks across units; called once after all of them."""
        if self.same_seed_units:
            self.tally.check(len({u.digest for u in units}) == 1,
                             "same-seed units wrote different outputs")

    def figures(self, units):
        raise NotImplementedError

    def samples_per_s(self, units):
        """Median over units of the main phase's items per second."""
        phases = self.main_phases
        return statistics.median(sum(u.phases[p][0] for p in phases) /
                                 sum(u.phases[p][1] for p in phases) for u in units)

    def job_s(self, units):
        return statistics.median(u.wall for u in units)


def _throughput(units, phase):
    items = sum(u.phases[phase][0] for u in units)
    seconds = sum(u.phases[phase][1] for u in units)
    return items / seconds


def d64_config():
    """The README's default model, with the synthetic corpus's feature widths."""
    return model.ModelConfig(model_dim=64, text_embed_dim=64, acoustic_dim=8, visual_dim=4,
                             layers_enc=2, layers_dec=2, heads=4, ffn_dim=128, max_len=128)


def d16_config():
    """Acceptance criterion 3's model."""
    return model.ModelConfig(model_dim=16, text_embed_dim=16, acoustic_dim=8, visual_dim=4,
                             layers_enc=1, layers_dec=1, heads=2, ffn_dim=32, max_len=96)


class Pretrain(Workload):
    """Stage one then stage two, two steps each at d=64 and batch 64, with
    augmentation and dropout on. Each stage-two call refreshes its centroids
    once and each call writes a checkpoint at step two and a final one. A unit
    is one round of both stages from the same seed."""

    name = "pretrain-d64"
    unit_seconds = 7.5
    main_phases = ("s1", "s2")

    def __init__(self, seed, smoke, tally):
        super().__init__(seed, smoke, tally)
        self.per_task = 4 if smoke else 16
        self.model_config = d16_config() if smoke else d64_config()
        self.train_config = training.TrainConfig(
            learning_rate=5e-6, batch_size=8 if smoke else 64, dropout_rate=0.1, seed=seed,
            max_steps=2, modal_mask_augment=True, centroid_refresh_every=2,
            checkpoint_every=2, validate_every_epochs=0)

    def _round(self, cfg, out):
        t0 = time.perf_counter()
        ck1 = training.run_pretrain_stage1(self.records, self.registry, self.model_config, cfg,
                                           out / "s1")
        t1 = time.perf_counter()
        training.run_pretrain_stage2(self.records, self.registry, self.model_config, cfg,
                                     out / "s2", init_checkpoint=ck1)
        t2 = time.perf_counter()
        samples = cfg.max_steps * cfg.batch_size
        return Unit(wall=t2 - t0, phases={"s1": [samples, t1 - t0], "s2": [samples, t2 - t1]},
                    extra={"out": out, "steps": cfg.max_steps})

    def warm_up(self, work):
        unit = self._round(replace(self.train_config, max_steps=1), work / "warmup")
        self.check_unit(unit, "warm-up", work)

    def run_unit(self, index, work):
        return self._round(self.train_config, work / f"round{index}")

    def check_unit(self, unit, index, work):
        files = []
        for stage in ("s1", "s2"):
            out = unit.extra["out"] / stage
            check_log(out / "metrics.jsonl", 1, unit.extra["steps"], self.tally,
                      f"{stage} round {index} log")
            ckpts = sorted(out.glob("*.ckpt"))
            self.tally.check(bool(ckpts), f"{stage} round {index} wrote no checkpoint")
            for ck in ckpts:
                check_checkpoint(ck, work, self.tally)
            files += [out / "metrics.jsonl"] + ckpts
        unit.digest = file_digest(files)

    def figures(self, units):
        return {"s1.samples_per_s": _throughput(units, "s1"),
                "s2.samples_per_s": _throughput(units, "s2")}


class FinetuneToTarget(Workload):
    """Criterion 3's recipe, fine-tuned until train decode accuracy reaches
    the target. Accuracy is checked every ``interval`` steps from the
    checkpoint the run just wrote; a job that reaches the cap fails. A unit is
    one job on the run seed's corpus. Job ``i`` always trains with the same
    seed, so the training seeds' share of the variation in steps to target
    stays out of the run-to-run spread; the corpus still varies it."""

    name = "finetune-to-target"
    unit_seconds = 5.0
    same_seed_units = False
    main_phases = ("ft",)
    target = 0.95
    interval = 5
    cap = 300
    max_new = 6

    def __init__(self, seed, smoke, tally):
        super().__init__(seed, smoke, tally)
        self.per_task = 4
        self.model_config = d16_config()
        self.train_config = training.TrainConfig(
            learning_rate=3e-3, batch_size=16, dropout_rate=0.0, seed=seed,
            modal_mask_augment=False, num_speakers=8, validate_every_epochs=0,
            max_new_tokens=self.max_new)

    def _job(self, job_seed, out, max_steps):
        """Fine-tune in chunks of ``interval`` steps, each chunk resuming
        from the previous chunk's checkpoint into a directory of its own,
        until the target is met or ``max_steps`` is reached."""
        train_s = 0.0
        step = 0
        reached = None
        ck = None
        t0 = time.perf_counter()
        while step < max_steps:
            step += self.interval
            cfg = replace(self.train_config, seed=job_seed, max_steps=step)
            a = time.perf_counter()
            ck = training.run_finetune(self.records, self.registry, self.model_config, cfg,
                                       out / f"step{step:04d}", resume_from=ck)
            train_s += time.perf_counter() - a
            params, config, vocab = load_model(ck)
            acc = evaluation.decode_accuracy(self.records, params, config, vocab, self.registry,
                                             max_new=self.max_new)
            if acc >= self.target:
                reached = step
                break
        wall = time.perf_counter() - t0
        return Unit(wall=wall, phases={"ft": [step * self.train_config.batch_size, train_s]},
                    extra={"out": out, "reached": reached, "steps": step})

    def warm_up(self, work):
        unit = self._job(seed_for(999), work / "warmup", self.interval)
        self.check_unit(unit, "warm-up", work)

    def run_unit(self, index, work):
        return self._job(seed_for(index), work / f"job{index}", self.cap)

    def check_unit(self, unit, index, work):
        files = []
        for chunk in sorted(unit.extra["out"].iterdir()):
            last = int(chunk.name[len("step"):])
            check_log(chunk / "metrics.jsonl", last - self.interval + 1, last, self.tally,
                      f"job {index} chunk to step {last}")
            check_checkpoint(chunk / "checkpoint.ckpt", work, self.tally)
            files += [chunk / "metrics.jsonl", chunk / "checkpoint.ckpt"]
        unit.digest = file_digest(files)
        if index != "warm-up":
            self.tally.check(unit.extra["reached"] is not None,
                             f"job {index} missed accuracy {self.target} within {self.cap} steps")

    def job_s(self, units):
        # jobs differ in training seed and so in length: average them
        return statistics.fmean(u.wall for u in units)

    def figures(self, units):
        reached = [u.extra["steps"] for u in units]
        return {"ft.samples_per_s": _throughput(units, "ft"),
                "ft.steps_to_target": statistics.fmean(reached),
                "ft.time_to_target_s": self.job_s(units)}


class Decode(Workload):
    """Inference only: a fixed-seed random d=64 model runs ``evaluate_records``
    with ``max_new=8`` over a 128-record corpus, then a clean ``encode`` of
    every record. A unit is one pass over the corpus."""

    name = "decode-d64"
    unit_seconds = 3.75
    main_phases = ("eval",)
    max_new = 8
    model_seed = 0

    def __init__(self, seed, smoke, tally):
        super().__init__(seed, smoke, tally)
        self.per_task = 4 if smoke else 32
        self.model_config = d16_config() if smoke else d64_config()

    def setup(self, work):
        self.records, self.registry = make_inputs(work / "corpus", self.seed, self.per_task)
        vocab = prompt.build_vocab(self.records, self.registry, num_speakers=16)
        config = replace(self.model_config, vocab_size=len(vocab),
                         num_datasets=len(self.registry), dropout_rate=0.0)
        params = model.init_params(config, np.random.default_rng(self.model_seed))
        meta = {"vocab": vocab.tokens, "vocab_datasets": vocab.num_datasets,
                "vocab_speakers": vocab.num_speakers}
        path = work / "model.ckpt"
        model.save_checkpoint(path, config, model.params_to_arrays(params), meta=meta)
        self.params, self.config, self.vocab = load_model(path)

    def warm_up(self, work):
        """Per-record ``generate`` + ``decode_label``, grouped the way
        ``evaluate_records`` groups its predictions: the reference every
        pass is checked against, and the pass's token count."""
        self.reference = {}
        self.tokens = 0
        for record in self.records:
            spec = self.registry.spec(record.dataset_id)
            ps = prompt.build_prompt(record, self.vocab, self.registry, self.config.max_len)
            ids = model.generate(ps, self.params, self.config, self.vocab, max_new=self.max_new)
            self.tokens += len(ids)
            try:
                pred = prompt.decode_label(ids, spec.answer, self.vocab).value
            except DecodeError:
                pred = 0.0 if spec.answer.scalar else spec.answer.labels[0]
            self.reference.setdefault(record.dataset_id, []).append(pred)

    def run_unit(self, index, work):
        n = len(self.records)
        t0 = time.perf_counter()
        results = evaluation.evaluate_records(self.records, self.params, self.config, self.vocab,
                                              self.registry, max_new=self.max_new)
        t1 = time.perf_counter()
        vectors = []
        for record in self.records:
            ps = prompt.build_prompt(record, self.vocab, self.registry, self.config.max_len)
            enc = model.encode(ps, self.params, self.config, self.vocab, mask_plan=None,
                               train=False)
            vectors.append(enc.pooled.data.copy())
        t2 = time.perf_counter()
        return Unit(wall=t2 - t0, phases={"eval": [n, t1 - t0], "embed": [n, t2 - t1]},
                    extra={"results": results, "vectors": vectors})

    def check_unit(self, unit, index, work):
        results = unit.extra.pop("results")
        vectors = unit.extra.pop("vectors")
        for dataset_id, expected in self.reference.items():
            got = results[dataset_id].preds if dataset_id in results else []
            wrong = sum(1 for i, p in enumerate(expected) if i >= len(got) or got[i] != p)
            self.tally.add(len(expected), wrong, f"pass {index} {dataset_id} predictions")
        bad = sum(1 for v in vectors if not np.all(np.isfinite(v)))
        self.tally.add(len(vectors), bad, f"pass {index} embeddings")
        h = hashlib.sha256(json.dumps({d: r.preds for d, r in sorted(results.items())}).encode())
        for v in vectors:
            h.update(v.tobytes())
        unit.digest = h.hexdigest()
        unit.extra["fallback_rate"] = statistics.fmean(
            fb for r in results.values() for fb in r.fallbacks)

    def figures(self, units):
        tokens = self.tokens * len(units)
        return {"decode.tokens_per_s": tokens / sum(u.phases["eval"][1] for u in units),
                "eval.records_per_s": _throughput(units, "eval"),
                "embed.records_per_s": _throughput(units, "embed"),
                "evaluation.fallback_rate": units[0].extra["fallback_rate"]}


WORKLOADS = {w.name: w for w in (Pretrain, FinetuneToTarget, Decode)}
