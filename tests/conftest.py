import errno
import sys

import numpy as np
import pytest

import sentigen.autodiff as ad
from sentigen.autodiff import backward
from sentigen.cli import make_synthetic_corpus
from sentigen.errors import ContractError, NumericError
from sentigen.data import Registry, load_corpus, write_jsonl
from sentigen.model import ModelConfig, init_params
from sentigen.prompt import build_vocab


@pytest.fixture(scope="session")
def toy(tmp_path_factory):
    """Shared read-only synthetic world: corpus, registry, records, vocab."""
    out = tmp_path_factory.mktemp("toy")
    corpus_path, registry_path = make_synthetic_corpus(out, seed=5, per_task=6)
    registry = Registry.load(registry_path)
    records = load_corpus(corpus_path, registry)
    vocab = build_vocab(records, registry, num_speakers=8)
    return {
        "dir": out,
        "corpus_path": corpus_path,
        "registry_path": registry_path,
        "registry": registry,
        "records": records,
        "vocab": vocab,
    }


class TornWrite:
    """A file whose writes stop after ``limit`` bytes: the write that would
    pass the limit stores the bytes up to it, then fails as a full disk."""

    def __init__(self, fh, limit):
        self.fh, self.left = fh, limit

    def write(self, data):
        if len(data) > self.left:
            self.fh.write(data[:self.left])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        self.left -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def small_config(vocab, registry, **overrides):
    base = dict(model_dim=16, text_embed_dim=16, acoustic_dim=8, visual_dim=4,
                layers_enc=1, layers_dec=1, heads=2, ffn_dim=32, max_len=96,
                vocab_size=len(vocab), num_datasets=len(registry), dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base).validate()


@pytest.fixture(scope="session")
def toy_model(toy):
    """A fixed random tiny model over the toy vocabulary."""
    config = small_config(toy["vocab"], toy["registry"])
    params = init_params(config, np.random.default_rng(42))
    return {"config": config, "params": params}


def grad_of(loss_fn, params, name):
    """Analytic gradient of loss_fn() with respect to params[name]."""
    g = backward(loss_fn()).get(params[name])
    return np.zeros_like(params[name].data) if g is None else g


def loss_value(out):
    """A loss's value: a scalar tensor's, or ``report.total`` of
    ``stage1_loss``'s (report, total, grads)."""
    return out[0].total if isinstance(out, tuple) else out.item()


def loss_value_and_grads(out):
    """``loss_value(out)`` and the loss's ``{leaf: gradient}``; for
    ``stage1_loss``'s triple, ``backward(total, grads)``."""
    return loss_value(out), backward(*out[1:]) if isinstance(out, tuple) else backward(out)


def finite_diff_check(f, x, eps=1e-5):
    """Compare analytic gradients of ``f`` at ``x`` against central differences.

    ``f`` must be a pure function of ``x.data`` returning a scalar tensor,
    or ``stage1_loss``'s triple (see ``loss_value``). Returns the maximum
    over coordinates of |analytic - central| / max(1, |central|).
    """
    _, grads = loss_value_and_grads(f(x))
    analytic = grads.get(x)
    if analytic is None:
        analytic = np.zeros_like(x.data)
    worst = 0.0
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_value(f(x))
        flat[i] = orig - eps
        lo = loss_value(f(x))
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError("finite_diff_check: non-finite evaluation")
        central = (hi - lo) / (2.0 * eps)
        err = abs(analytic.reshape(-1)[i] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# reference ops that ``autodiff`` does not keep, for tests only: composed
# from the ops it keeps, except ``sqrt`` and ``div``, one node each


def sum_of(a, b=None):
    """sum(a * b) as a scalar tensor, ``b`` a tensor, an array, or None for
    ones: ``a``'s entries as a row times ``b``'s as a column."""
    if not isinstance(b, ad.Tensor):
        b = ad.constant(np.ones(a.shape) if b is None else b)
    return ad.reshape(ad.matmul(ad.reshape(a, (1, a.data.size)), ad.reshape(b, (b.data.size, 1))), ())


def sub(a, b):
    return ad.add(a, ad.scale(b, -1.0))


def gather_cols(a, cols):
    """Column gather: out[:, j] = a[:, cols[j]]."""
    return ad.transpose(ad.embedding(ad.transpose(a), cols))


def sqrt(a):
    root = np.sqrt(a.data)
    return ad._make(root, "sqrt", (a,), lambda g: (g * 0.5 / root,))


def div(a, b):
    x, y = a.data, b.data
    return ad._make(x / y, "div", (a, b), lambda g: (g / y, -g * x / (y * y)))


# whole-array reference ops: each does, expression for expression, what the
# blocked and in-place kernel of the op of the same name in ``autodiff`` must
# reproduce byte for byte


def gelu_ref(a):
    x = a.data
    c, k = ad._GELU_C, ad._GELU_A
    t = np.tanh(c * (x + k * (x * x * x)))

    def rule(g):
        du = c * (1.0 + 3.0 * k * (x * x))
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return ad._make(0.5 * x * (1.0 + t), "gelu", (a,), rule)


def layer_norm_ref(a, gain, bias, residual=None, eps=1e-5):
    n = a.shape[1]
    x = a.data if residual is None else a.data + residual.data
    xc = x - x.sum(axis=1, keepdims=True) / n
    var = (xc * xc).sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gain.data
    parents = (a, gain, bias) if residual is None else (a, residual, gain, bias)

    def rule(g):
        h = g * gd
        dx = inv * (h - h.sum(axis=1, keepdims=True) / n - xhat * ((h * xhat).sum(axis=1, keepdims=True) / n))
        return (dx,) * (len(parents) - 2) + ((g * xhat).sum(axis=0), g.sum(axis=0))

    return ad._make(xhat * gd + bias.data, "layer_norm", parents, rule)


def pair_contrast_ref(x, same):
    """``ad.pair_contrast`` as an independent oracle: the masses are products
    of dense (active rows x live pairs) incidence matrices with the pair
    distances, each distance the root of a product with a ones column, and
    the rule sends the rows' coefficients back to the pairs through the
    transposed matrices. The op sums the same masses per row instead, so
    the two agree to rounding, not to the byte."""
    b, d = x.shape
    j, k = np.triu_indices(b, 1)
    diff = x.data[j] - x.data[k]
    sq = diff * diff
    live = sq.sum(axis=1) > 0.0
    j, k, diff, sq = j[live], k[live], diff[live], sq[live]
    involved = np.zeros((b, len(j)))
    involved[j, np.arange(len(j))] = involved[k, np.arange(len(j))] = 1.0
    involved_same = involved * np.asarray(same)[j, k]
    active = involved_same.sum(axis=1) > 0.0
    m_same, m_all, ones = involved_same[active], involved[active], np.ones((d, 1))
    root = np.sqrt(sq @ ones)
    numer, denom = m_same @ root, m_all @ root

    def rule(g):
        gr = np.full(numer.shape, float(np.asarray(g).reshape(())))
        groot = m_same.T @ (gr / denom) + m_all.T @ (-gr * numer / (denom * denom))
        gsq = (groot * 0.5 / root) @ ones.T
        gdiff = gsq * diff + gsq * diff
        return (ad._row_sums(gdiff, j, (b, d)) + ad._row_sums(gdiff * -1.0, k, (b, d)),)

    return ad._make((numer / denom).sum(), "pair_contrast", (x,), rule)


def attention_ref(x_q, x_kv, q, wk, v, o, heads, q_offsets, k_offsets, causal=False, bk=None):
    """``ad.attention`` as the nodes it fuses: ``linear`` projections of
    ``x_q`` by the (w, b) pair ``q`` and of ``x_kv`` by ``v``, the keys a
    ``matmul`` of ``x_kv`` by ``wk`` (a ``linear`` with ``bk``, when a key
    bias is given), in q, k, v order, one node over them that keeps q, k
    and v, on the node's forward and its rule's kernels, then a ``linear``
    of its output by the pair ``o``."""
    qt = ad.linear(x_q, *q)
    kt = ad.matmul(x_kv, wk) if bk is None else ad.linear(x_kv, wk, bk)
    vt = ad.linear(x_kv, *v)
    out, p, (queries, keys, norm) = ad._attend(
        qt.data, ad.head_layout(kt.data, vt.data, heads, k_offsets), q_offsets, causal)

    def rule(g):
        gh = queries.split(g, heads)
        dp = gh @ keys.split(vt.data, heads).swapaxes(2, 3)
        dv = keys.merge(p.swapaxes(2, 3) @ gh)
        dp -= (dp * p).sum(axis=3, keepdims=True)
        dz = p * dp * norm
        return (queries.merge(dz @ keys.split(kt.data, heads)),
                keys.merge(dz.swapaxes(2, 3) @ queries.split(qt.data, heads)), dv)

    return ad.linear(ad._make(out, "attention", (qt, kt, vt), rule), *o)


def block_projections(params, prefix):
    """One attention block's projections as ``ad.attention`` takes them: the
    (w, b) pair of the queries, the keys' weight, the values' pair and the
    output's pair."""
    return ((params[f"{prefix}_wq"], params[f"{prefix}_bq"]), params[f"{prefix}_wk"],
            (params[f"{prefix}_wv"], params[f"{prefix}_bv"]),
            (params[f"{prefix}_wo"], params[f"{prefix}_bo"]))


def msa_metrics(golds, preds):
    """The scalar sentiment triple a registry's msa dataset scores, each
    entry from ``compute_metric``."""
    from sentigen.evaluation import compute_metric
    return {name: compute_metric(name, golds, preds) for name in ("mae", "acc7", "acc2")}


def fd_check_param(loss_fn, params, name):
    """finite_diff_check over every coordinate of one parameter tensor."""
    return finite_diff_check(lambda t: loss_fn(), params[name])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def fd_check_coords(loss_fn, params, name, coords, eps=1e-5):
    """Central-difference check restricted to chosen flat coordinates of one
    (possibly large) parameter tensor; same error formula as
    finite_diff_check."""
    analytic = grad_of(loss_fn, params, name).reshape(-1)
    flat = params[name].data.reshape(-1)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn().item()
        flat[i] = orig - eps
        lo = loss_fn().item()
        flat[i] = orig
        central = (hi - lo) / (2.0 * eps)
        worst = max(worst, abs(analytic[i] - central) / max(1.0, abs(central)))
    return worst


# ---------------------------------------------------------------------------
# inverses of what the package writes, which it never reads back itself


def serialize_corpus(records, path):
    """Write records back to the JSONL corpus format ``load_corpus`` reads.
    Features loaded from sidecars are inlined, as float32 values."""

    def features(arr):
        return None if arr is None else [[float(x) for x in row]
                                         for row in np.asarray(arr, dtype=np.float32)]

    write_jsonl(path, [{"task_type": r.task_type.value, "dataset_id": r.dataset_id, "text": r.text,
                        "audio": features(r.audio), "image": features(r.image),
                        "context": None if r.context is None else [[s, t] for s, t in r.context],
                        "speaker_id": r.speaker_id, "utterance_index": r.utterance_index,
                        "label": r.label}
                       for r in records])


def resegment_prompt(ids, vocab):
    """Invert ``PromptSequence.ids``, the tests' span oracle: split a flat id
    list back into spans.

    Z runs to the answer-set opener, Y to its closer. If the remainder starts
    with a speaker token it parses as utterances up to the last separator,
    which precedes the query.
    """
    ids = list(ids)
    try:
        a = ids.index(vocab.ans_open_id)
        b = ids.index(vocab.ans_close_id)
    except ValueError:
        raise ContractError("prompt has no answer-set span") from None
    if not a < b:
        raise ContractError("answer-set markers out of order")
    z = tuple(ids[:a])
    y = tuple(ids[a:b + 1])
    rest = ids[b + 1:]

    def is_speaker(tid):  # the speaker tokens close the special block
        return vocab.n_special - vocab.num_speakers <= tid < vocab.n_special

    context = []
    query = tuple(rest)
    if rest and is_speaker(rest[0]):
        # conversation layout: utterances, then <sep>, then the query
        try:
            cut = len(rest) - 1 - rest[::-1].index(vocab.sep_id)
        except ValueError:
            raise ContractError("conversation prompt lost its query separator") from None
        head, query = rest[:cut], tuple(rest[cut + 1:])
        current = None
        for tid in head:
            if is_speaker(tid):
                if current is not None:
                    context.append(tuple(current))
                current = [tid]
            else:
                current.append(tid)
        if current is not None:
            context.append(tuple(current))
    return {"z": z, "y": y, "context": tuple(context), "x": query}
