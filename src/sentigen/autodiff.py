"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small and CPU-only: row-major numpy storage, a dynamically
recorded op graph, and a central-difference checker that the test suite uses
as an independent oracle for every backward rule. All math runs in 64-bit
floats so gradient checks are limited by truncation error, not rounding.

Each op records its parents and a backward rule. A rule maps the gradient of
the op's output to a tuple of gradients aligned with ``parents`` (``None``
where a parent needs none). ``backward`` walks the graph once in reverse
topological order, sums every tensor's incoming gradients in one dict, and
writes each leaf's ``.grad`` once, into a buffer that leaf owns.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _as_f64(data):
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Tensors produced by ops keep references to their parents and a backward
    rule; ``backward`` walks that graph in reverse topological order. An op
    whose inputs all lack ``requires_grad`` records nothing, so a forward pass
    over constants (frozen parameters, say) leaves no graph behind. Data is
    treated as immutable once a tensor has been consumed by an op; gradients
    accumulate across repeated backward calls until ``zero_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_rule")

    def __init__(self, data, requires_grad=False, op="leaf", parents=()):
        self.data = _as_f64(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.parents = tuple(parents)
        self._rule = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data):
    return Tensor(data, requires_grad=False, op="const")


def parameter(shape, rng, std=0.02):
    """Gaussian-initialised leaf tensor that wants gradients."""
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True, op="param")


def _make(data, op, parents, rule):
    if not any(p.requires_grad for p in parents):
        return Tensor(data, op=op)
    out = Tensor(data, requires_grad=True, op=op, parents=parents)
    out._rule = rule
    return out


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {op}")


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    """Elementwise a + b. Also accepts b of shape (n,) against a of shape (m, n)."""
    if a.shape == b.shape:
        rule = lambda g: (g, g)
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        rule = lambda g: (g, g.sum(axis=0))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data + b.data, "add", (a, b), rule)


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def scale(a, s):
    s = float(s)
    return _make(a.data * s, "scale", (a,), lambda g: (g * s,))


def sub(a, b):
    return add(a, scale(b, -1.0))


def div(a, b):
    """Elementwise a / b. Division by zero is a numeric error."""
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    if np.any(b.data == 0.0):
        raise NumericError("div: division by zero")
    return _make(a.data / b.data, "div", (a, b),
                 lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return _make(a.data @ b.data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: needs a 2-D operand, got {a.shape}")
    return _make(a.data.T, "transpose", (a,), lambda g: (g.T,))


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _make(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(a.shape),))


def concat_rows(parts):
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_rows: empty input")
    cols = parts[0].shape[-1]
    for p in parts:
        if p.data.ndim != 2 or p.shape[1] != cols:
            raise ShapeError(f"concat_rows: inconsistent shapes {[p.shape for p in parts]}")
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def rule(g):
        return tuple(g[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    return _make(np.concatenate([p.data for p in parts], axis=0), "concat_rows", parts, rule)


def slice_rows(a, start, stop):
    if a.data.ndim != 2 or not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] invalid for {a.shape}")

    def rule(g):
        buf = np.zeros_like(a.data)
        buf[start:stop] = g
        return (buf,)

    return _make(a.data[start:stop].copy(), "slice_rows", (a,), rule)


def tile_rows(v, n):
    """Repeat a vector (d,) into a matrix (n, d)."""
    if v.data.ndim != 1:
        raise ShapeError(f"tile_rows: needs a vector, got {v.shape}")
    return _make(np.tile(v.data, (int(n), 1)), "tile_rows", (v,), lambda g: (g.sum(axis=0),))


def embedding(table, ids):
    """Row gather: out[i] = table[ids[i]]. Backward scatter-adds into the table.

    Rows never indexed receive an exactly-zero gradient contribution.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding: ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embedding: index out of range for table with {table.shape[0]} rows")

    def rule(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return _make(table.data[idx], "embedding", (table,), rule)


def sum_all(a):
    return _make(a.data.sum(), "sum_all", (a,),
                 lambda g: (np.full_like(a.data, float(np.asarray(g).reshape(()))),))


def masked_mean_rows(a, keep):
    """Mean over the rows of ``a`` selected by boolean mask ``keep``.

    A (rows,) mask gives one mean, (d,). A (B, L) mask over B·L sample-major
    rows gives one mean per sample, (B, d), each computed exactly as its
    sample's own (L,) mask would."""
    keep = np.asarray(keep, dtype=bool)
    if a.data.ndim != 2 or keep.ndim not in (1, 2) or keep.size != a.shape[0]:
        raise ShapeError(f"masked_mean_rows: mask {keep.shape} does not fit {a.shape}")
    per_sample = keep.reshape(-1, keep.shape[-1])
    counts = per_sample.sum(axis=1)
    if (counts == 0).any():
        raise ContractError("masked_mean_rows: no rows selected")
    rows = a.data.reshape(per_sample.shape + (a.shape[1],))
    means = np.array([r[k].mean(axis=0) for r, k in zip(rows, per_sample)])

    def rule(g):
        buf = np.zeros_like(rows)
        buf[per_sample] = (g.reshape(means.shape) / counts[:, None]).repeat(counts, axis=0)
        return (buf.reshape(a.shape),)

    return _make(means.reshape(keep.shape[:-1] + (a.shape[1],)), "masked_mean_rows", (a,), rule)


def sqrt(a):
    """Elementwise square root. Differentiable only for strictly positive input."""
    if np.any(a.data < 0):
        raise NumericError("sqrt: negative input")
    root = np.sqrt(a.data)
    return _make(root, "sqrt", (a,), lambda g: (g * 0.5 / root,))


# ---------------------------------------------------------------------------
# nonlinearities and normalisation


def gelu(a):
    """tanh-form GELU: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    The powers are products: ``x ** 3`` would go through libm ``pow``, which
    is many times slower than two multiplies."""
    x = a.data
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def rule(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return _make(out, "gelu", (a,), rule)


def layer_norm(a, gain, bias, eps=1e-5):
    """Normalise each row of ``a`` to zero mean and unit variance, then scale and shift."""
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm: needs a 2-D operand, got {a.shape}")
    n = a.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not fit {a.shape}")
    mu = a.data.mean(axis=1, keepdims=True)
    var = a.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = xhat * gain.data + bias.data

    def rule(g):
        h = g * gain.data
        dx = inv * (h - h.mean(axis=1, keepdims=True) - xhat * (h * xhat).mean(axis=1, keepdims=True))
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _make(out, "layer_norm", (a, gain, bias), rule)


def softmax(a):
    """Row-wise softmax with max subtraction; each output row sums to 1."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax: needs a 2-D operand, got {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, "softmax", (a,), rule)


def attention(q, k, v, bias, heads):
    """Multi-head scaled dot-product attention over a batch of samples, as one node.

    ``bias`` is a constant (B, Lq, Lk) array, or (B, 1, Lk) to apply one row
    to every query of a sample, holding 0 where a query may attend a key and
    a large negative number where it may not. ``q`` then holds B·Lq
    sample-major rows and ``k``, ``v`` B·Lk rows each, so no query sees
    another sample's keys. A 2-D bias, (Lq, Lk) or (1, Lk), is a batch of
    one. Column block h of width d / heads belongs to head h. Returns the
    per-head outputs side by side, (B·Lq, d).
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: incompatible q {q.shape}, k {k.shape}, v {v.shape}")
    d = q.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    hd = d // heads
    bias = np.asarray(bias, dtype=np.float64)
    if bias.ndim == 2:
        bias = bias[None]
    b = bias.shape[0] if bias.ndim == 3 else 0
    if b < 1 or q.shape[0] % b or k.shape[0] % b:
        raise ShapeError(f"attention: bias {bias.shape} does not fit q {q.shape}, k {k.shape}")
    lq, lk = q.shape[0] // b, k.shape[0] // b
    if bias.shape[1] not in (1, lq) or bias.shape[2] != lk:
        raise ShapeError(f"attention: bias {bias.shape} does not fit ({b}, {lq}, {lk})")
    norm = 1.0 / float(np.sqrt(hd))

    def split(x, rows):  # (B * rows, d) -> (B, heads, rows, hd)
        return x.reshape(b, rows, heads, hd).transpose(0, 2, 1, 3)

    def merge(x, rows):  # (B, heads, rows, hd) -> (B * rows, d)
        return x.transpose(0, 2, 1, 3).reshape(b * rows, d)

    qh, kh, vh = split(q.data, lq), split(k.data, lk), split(v.data, lk)
    z = (qh @ kh.swapaxes(2, 3)) * norm + bias[:, None]
    e = np.exp(z - z.max(axis=3, keepdims=True))
    p = e / e.sum(axis=3, keepdims=True)
    out = merge(p @ vh, lq)

    def rule(g):
        gh = split(g, lq)
        dv = merge(p.swapaxes(2, 3) @ gh, lk) if v.requires_grad else None
        dp = gh @ vh.swapaxes(2, 3)
        dz = p * (dp - (dp * p).sum(axis=3, keepdims=True)) * norm
        dq = merge(dz @ kh, lq) if q.requires_grad else None
        dk = merge(dz.swapaxes(2, 3) @ qh, lk) if k.requires_grad else None
        return dq, dk, dv

    return _make(out, "attention", (q, k, v), rule)


def softmax_cross_entropy(logits, targets):
    """Mean over rows of -log softmax(logits)[target].

    ``targets`` are class indices, one per logit row. Computed with the usual
    max-subtraction so large logits do not overflow.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    b, v = logits.shape
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != (b,):
        raise ShapeError(f"softmax_cross_entropy: {b} rows but {idx.shape} targets")
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise IndexError(f"softmax_cross_entropy: target outside [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(b), idx]
    out = losses.mean()
    _check_finite(out, "softmax_cross_entropy")

    def rule(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), idx] -= 1.0
        return (p * (float(np.asarray(g).reshape(())) / b),)

    return _make(out, "softmax_cross_entropy", (logits,), rule)


def gather_cols(a, cols):
    """Column gather: out[:, j] = a[:, cols[j]]. Used for restricted-vocabulary losses."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_cols: needs a 2-D operand, got {a.shape}")
    idx = np.asarray(cols, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"gather_cols: column outside [0, {a.shape[1]})")

    def rule(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf.T, idx, g.T)
        return (buf,)

    return _make(a.data[:, idx].copy(), "gather_cols", (a,), rule)


def dropout(a, rate, rng):
    """Inverted dropout driven by an explicit RNG stream. rate == 0 is the identity."""
    if not (0.0 <= rate < 1.0):
        raise ContractError(f"dropout: rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate)
    factor = 1.0 / (1.0 - rate)
    mask = keep.astype(np.float64) * factor
    return _make(a.data * mask, "dropout", (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# graph walking


def _topological_order(out):
    """Every tensor reachable from ``out``, each after all of its parents."""
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires-grad leaf.

    ``loss`` must hold a single value. Gradients add onto whatever is already
    stored, so callers reset with ``zero_grads`` between steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data.reshape(())):
        raise NumericError("backward: loss is not finite")
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(_topological_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._rule is None:
            if node.requires_grad:
                # a rule may hand several parents one array, or a view of
                # its input: copy so each leaf owns the buffer it is given
                if node.grad is None:
                    node.grad = np.array(g, order="C")
                else:
                    node.grad += g
            continue
        for p, pg in zip(node.parents, node._rule(g)):
            if pg is not None and p.requires_grad:
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else prev + pg


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


def global_grad_norm(tensors):
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return float(np.sqrt(total))


def finite_diff_check(f, x, eps=1e-5):
    """Compare analytic gradients of ``f`` at ``x`` against central differences.

    ``f`` must be a pure function of ``x.data`` returning a scalar tensor.
    Returns the maximum over coordinates of
    |analytic - central| / max(1, |central|).
    """
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ContractError("finite_diff_check: f must return a scalar")
    backward(out)
    if x.grad is None:
        analytic = np.zeros_like(x.data)
    else:
        analytic = x.grad.copy()
    worst = 0.0
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x).item()
        flat[i] = orig - eps
        lo = f(x).item()
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError("finite_diff_check: non-finite evaluation")
        central = (hi - lo) / (2.0 * eps)
        err = abs(analytic.reshape(-1)[i] - central) / max(1.0, abs(central))
        worst = max(worst, err)
    return worst
