"""Span tracing of sentigen from outside the package.

``Tracer.installed()`` replaces public functions by name in each module that
calls them (``sentigen.training.encode``, ``sentigen.objectives.encode``,
``sentigen.autodiff.backward``, ...) with wrappers that record one span per
call: name, start, end, parent span and the current step or record tag. The
spans stay in memory; ``write_spans`` dumps them when the run ends and
``layer_metrics`` turns them into the per-layer figures. Nothing in ``src/``
changes, and leaving the context restores every original function.

A span's layer is the part of its name before the first dot. Its self time is
its duration minus the durations of its direct children; the self times of a
root span's tree add up to the root's duration exactly. Per traced unit, the
``<layer>.self_s`` figures plus ``training.adam_step.s`` and
``training.clip_gradients.s`` partition the unit's wall time.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

import sentigen.autodiff as autodiff
import sentigen.data as data
import sentigen.evaluation as evaluation
import sentigen.model as model
import sentigen.objectives as objectives
import sentigen.prompt as prompt
import sentigen.training as training

# Every op name ``autodiff`` gives a tensor; anything new is counted as "other".
GRAPH_OPS = ("add", "mul", "scale", "div", "matmul", "transpose", "reshape", "concat_rows",
             "slice_rows", "slice_cols", "tile_rows", "embedding", "sum_all", "masked_mean_rows",
             "sqrt", "gelu", "layer_norm", "softmax", "softmax_cross_entropy", "gather_cols",
             "dropout", "param", "const")

LAYERS = ("autodiff", "model", "objectives", "training", "prompt", "masking", "data",
          "evaluation", "bench", "trace")

RUN_SPANS = ("training.run_pretrain_stage1", "training.run_pretrain_stage2",
             "training.run_finetune")


def count_graph(root, stop=()):
    """Node count per ``Tensor.op`` over the graph behind ``root``, not
    walking past the tensors in ``stop``."""
    counts = {}
    seen = {id(t) for t in stop}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        counts[node.op] = counts.get(node.op, 0) + 1
        stack.extend(node.parents)
    return counts


class Tracer:
    """Records spans as ``[name, start, end, parent_index, tag]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.tag = None
        self.record_ids = {}      # id(record) -> corpus index, for decode tags
        self.step_nodes = []      # per backward call: {op: count}
        self.ccl_nodes = []       # per loss_ccl call: nodes it built
        self.positions = 0        # decoder positions fed to decoder_states
        self.tokens = 0           # tokens returned by generate
        self.checkpoint_bytes = 0

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.tag]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- hooks ----------------------------------------------------------

    def _count_step_graph(self, args, kwargs):
        with self.span("trace.graph_walk"):
            self.step_nodes.append(count_graph(args[0]))

    def _count_ccl_graph(self, args, kwargs, out):
        with self.span("trace.graph_walk"):
            self.ccl_nodes.append(sum(count_graph(out, stop=args[0]).values()))

    def _count_positions(self, args, kwargs):
        self.positions += len(args[0])

    def _count_tokens(self, args, kwargs, out):
        self.tokens += len(out)

    def _count_bytes(self, args, kwargs, out):
        self.checkpoint_bytes += os.path.getsize(args[0])

    def _tag_step(self, args, kwargs, out):
        self.tag = (self.tag or 0) + 1

    def _start_run(self, args, kwargs):
        self.tag = 1

    def _tag_record(self, args, kwargs):
        self.tag = self.record_ids.get(id(args[0]))

    # -- installation ---------------------------------------------------

    def targets(self):
        """(namespace, attribute, span name, before hook, after hook)."""
        t = []

        def at(namespaces, attr, name, before=None, after=None):
            for ns in namespaces:
                t.append((ns, attr, name, before, after))

        at([autodiff], "backward", "autodiff.backward", before=self._count_step_graph)
        at([model, objectives, training], "encode", "model.encode")
        at([model, objectives], "decoder_states", "model.decoder_states",
           before=self._count_positions)
        at([model, objectives], "token_logits", "model.token_logits")
        at([model, evaluation], "generate", "model.generate", after=self._count_tokens)
        at([model, training], "save_checkpoint", "model.save_checkpoint", after=self._count_bytes)
        at([model, training], "load_checkpoint", "model.load_checkpoint")
        at([model, training], "params_from_arrays", "model.params_from_arrays")
        at([objectives], "loss_mcm", "objectives.loss_mcm")
        at([objectives], "loss_ccl", "objectives.loss_ccl", after=self._count_ccl_graph)
        at([objectives], "loss_cep", "objectives.loss_cep")
        at([training], "stage1_loss", "objectives.stage1_loss")
        at([training], "stage2_loss", "objectives.stage2_loss")
        at([training], "generation_loss", "objectives.generation_loss")
        at([training], "build_centroids", "objectives.build_centroids")
        at([training], "assign_pseudo_labels", "objectives.assign_pseudo_labels")
        at([training], "clip_gradients", "training.clip_gradients")
        at([training.Adam], "step", "training.adam_step", after=self._tag_step)
        for fn in ("run_pretrain_stage1", "run_pretrain_stage2", "run_finetune"):
            at([training], fn, f"training.{fn}", before=self._start_run)
        at([prompt, training, evaluation], "build_prompt", "prompt.build_prompt")
        at([evaluation], "decode_label", "prompt.decode_label")
        for fn in ("sample_modal_setting", "apply_modal_setting", "sample_mcm_plan"):
            at([training], fn, f"masking.{fn}")
        at([training], "combine_queries", "data.combine_queries")
        at([data], "load_corpus", "data.load_corpus")
        at([evaluation, training], "evaluate_records", "evaluation.evaluate_records")
        at([evaluation], "decode_accuracy", "evaluation.decode_accuracy")
        at([evaluation], "predict_label", "evaluation.predict_label", before=self._tag_record)
        return t

    @contextlib.contextmanager
    def installed(self, records=()):
        """Patch every target for the duration of the block. ``records`` are
        the corpus records whose index tags decode spans."""
        self.record_ids = {id(r): i for i, r in enumerate(records)}
        saved = []
        try:
            for ns, attr, name, before, after in self.targets():
                original = ns.__dict__[attr]
                saved.append((ns, attr, original))
                setattr(ns, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tail(values, min_beyond=10):
    """(value, percentile) for the highest percentile with at least
    ``min_beyond`` samples above it, or the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 2 * min_beyond:
        return statistics.median(ordered), 50.0
    return ordered[n - min_beyond - 1], 100.0 * (n - min_beyond) / n


def step_times(spans):
    """Training step durations: the gaps between consecutive ``adam_step``
    ends inside one run call. The first step of each call includes the run's
    start-up and is left out as warm-up."""
    ends = {}
    for name, start, end, parent, tag in spans:
        if name == "training.adam_step" and parent >= 0 and spans[parent][0] in RUN_SPANS:
            ends.setdefault(parent, []).append(end)
    out = []
    for marks in ends.values():
        out.extend(b - a for a, b in zip(marks, marks[1:]))
    return out


def refresh_windows(spans):
    """Centroid refreshes inside stage-two run calls, found from the public
    calls a refresh makes at the run's top level: (build_prompt, clean
    encode) per record, then build_centroids, then assign_pseudo_labels per
    record. Returns the wall time of each refresh."""
    children = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == "training.run_pretrain_stage2":
            children.setdefault(parent, []).append(i)
    windows = []
    for kids in children.values():
        start = None
        last = None
        for pos, i in enumerate(kids):
            name = spans[i][0]
            if name == "model.encode" and start is None:
                prev = kids[pos - 1] if pos else None
                start = spans[prev][1] if prev is not None and spans[prev][0] == "prompt.build_prompt" \
                    else spans[i][1]
            elif name == "objectives.assign_pseudo_labels" and start is not None:
                last = spans[i][2]
            elif start is not None and last is not None:
                windows.append(last - start)
                start = last = None
        if start is not None and last is not None:
            windows.append(last - start)
    return windows


def layer_metrics(tracer, units, records, phase_s, load_corpus_s):
    """Per-layer figures, averaged per traced unit (round, job or pass).
    ``phase_s`` is the traced units' total time in training run calls and
    ``load_corpus_s`` the corpus load time of a traced set-up."""
    spans = tracer.spans
    own = self_times(spans)
    calls, incl = {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, _, _), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s

    def per_unit(x):
        return x / units

    def total(*names):
        return per_unit(sum(incl.get(n, 0.0) for n in names))

    def count(name):
        return per_unit(calls.get(name, 0))

    m = {}
    steps = tracer.step_nodes
    op_totals = {}
    for counts in steps:
        for op, n in counts.items():
            key = op if op in GRAPH_OPS else "other"
            op_totals[key] = op_totals.get(key, 0) + n
    n_steps = max(1, len(steps))
    m["autodiff.graph_nodes"] = sum(op_totals.values()) / n_steps
    for op in GRAPH_OPS + ("other",):
        m[f"autodiff.graph_nodes.{op}"] = op_totals.get(op, 0) / n_steps
    m["autodiff.backward.calls"] = count("autodiff.backward")
    m["autodiff.backward_s"] = total("autodiff.backward")
    m["autodiff.backward_share"] = total("autodiff.backward") / per_unit(phase_s) if phase_s else 0.0

    for fn in ("encode", "decoder_states", "token_logits", "generate"):
        m[f"model.{fn}.calls"] = count(f"model.{fn}")
        m[f"model.{fn}.s"] = total(f"model.{fn}")
    m["model.decoder_states.positions"] = per_unit(tracer.positions)
    m["model.generate.tokens"] = per_unit(tracer.tokens)
    m["model.decode.positions_per_token"] = (
        tracer.positions / tracer.tokens if tracer.tokens else 0.0)
    m["model.save_checkpoint.calls"] = count("model.save_checkpoint")
    m["model.save_checkpoint.s"] = total("model.save_checkpoint")
    m["model.save_checkpoint.bytes"] = per_unit(tracer.checkpoint_bytes)
    m["model.load_checkpoint.s"] = total("model.load_checkpoint")

    m["objectives.loss_ccl.s"] = total("objectives.loss_ccl")
    m["objectives.loss_ccl.nodes"] = (sum(tracer.ccl_nodes) / len(tracer.ccl_nodes)
                                      if tracer.ccl_nodes else 0.0)
    for fn in ("loss_mcm", "loss_cep", "stage1_loss", "stage2_loss", "generation_loss",
               "build_centroids", "assign_pseudo_labels"):
        m[f"objectives.{fn}.s"] = total(f"objectives.{fn}")

    durations = step_times(spans)
    high, pct = tail(durations)
    m["training.step_s.p50"] = statistics.median(durations) if durations else 0.0
    m["training.step_s.tail"] = high
    m["training.step_s.tail_pct"] = pct
    m["training.step_s.n"] = per_unit(len(durations))
    m["training.adam_step.s"] = total("training.adam_step")
    m["training.clip_gradients.s"] = total("training.clip_gradients")
    refreshes = refresh_windows(spans)
    m["training.centroid_refresh.count"] = per_unit(len(refreshes))
    m["training.centroid_refresh.s"] = per_unit(sum(refreshes))
    m["training.self_s"] = per_unit(sum(s for (name, *_), s in zip(spans, own) if name in RUN_SPANS))

    m["prompt.build_prompt.calls"] = count("prompt.build_prompt")
    m["prompt.build_prompt.s"] = total("prompt.build_prompt")
    m["prompt.build_prompt.calls_per_record"] = count("prompt.build_prompt") / len(records)
    m["prompt.decode_label.s"] = total("prompt.decode_label")
    m["masking.s"] = total("masking.sample_modal_setting", "masking.apply_modal_setting",
                           "masking.sample_mcm_plan")
    m["data.combine_queries.s"] = total("data.combine_queries")
    m["data.load_corpus.s"] = load_corpus_s
    m["evaluation.evaluate_records.s"] = total("evaluation.evaluate_records")
    m["evaluation.decode_accuracy.s"] = total("evaluation.decode_accuracy")
    for layer in LAYERS:
        if layer != "training":   # training.self_s above is the run loops' own time
            m[f"{layer}.self_s"] = per_unit(layer_self[layer])
    m["trace.spans"] = per_unit(len(spans))
    return m
