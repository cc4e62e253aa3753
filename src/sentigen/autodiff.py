"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small and CPU-only: row-major numpy storage, a dynamically
recorded op graph, and 64-bit math throughout, so the tests' central
difference checks are limited by truncation error, not rounding.

An op records a ``Node``: its name, its parents' vertices (a leaf tensor is
its own vertex), a backward rule, and a weak reference to its output
``Tensor``, which alone holds the output array. A rule maps the output's
gradient to one gradient per parent (``None`` where a parent needs none) and
captures only the arrays, shapes and flags it reads, so an output no rule
reads is freed once the caller drops its tensor. ``backward`` walks the graph
once in reverse topological order, sums each vertex's incoming gradients in
one dict, returns each leaf's gradient as a value (no tensor holds one), and
consumes the graph: a vertex drops its rule and edges once it has passed its
gradients on, so the arrays the rule held are freed during the pass.

``linear``, ``layer_norm``'s ``residual``, ``embedding``'s extra
``(table, ids)`` pairs and ``pair_contrast`` each fuse several nodes into
one, with the same floats in the same order. Rules keep only what they read:
``attention``'s its softmax weights, not padded copies of q, k and v;
``dropout``'s a bool mask; ``gelu``'s the slope its forward pass writes; and
``pair_contrast``'s its input, from which it rebuilds its pair differences.
The module keeps only the ops the rest of the package calls.

``gelu`` and ``layer_norm`` work in place over cache-sized row blocks
(``_by_rows``) with the ufuncs of the whole-array expressions, in their order
and so with their bytes. Column sums and matrix products stay whole: blocked,
a sum would add in another order and BLAS may pick another kernel.
"""
from __future__ import annotations

import weakref

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
_BLOCK = 1 << 14  # elements in a row block of gelu and layer_norm: 128 KB of float64
_NEG_INF = -1e30  # added to a hidden logit (a key, a class): its exp underflows to 0


def _as_f64(data):
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class Tensor:
    """A dense float64 array and the ``Node`` of the op that made it
    (``node``; None for a leaf). An op whose inputs all lack
    ``requires_grad`` records none, so a pass over constants leaves no graph.
    Data is immutable once an op has read it. A tensor holds no gradient:
    ``backward`` returns them."""

    __slots__ = ("data", "requires_grad", "op", "node", "__weakref__")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def parents(self):
        """The parents of this tensor's op (see ``Node.parents``)."""
        return () if self.node is None else self.node.parents

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """A graph vertex, holding no output: the op's name, its parents'
    vertices (``inputs``), its backward rule, and a weak reference to the
    tensor it computed (``out``). ``backward`` empties ``rule`` and
    ``inputs`` once the vertex has passed its gradients on."""

    __slots__ = ("op", "inputs", "rule", "out", "__weakref__")
    requires_grad = True  # a vertex is recorded only on a path to a leaf that needs one

    def __init__(self, op, inputs, rule, out):
        self.op, self.inputs, self.rule, self.out = op, inputs, rule, weakref.ref(out)

    @property
    def parents(self):
        """Each parent's tensor while it is alive, else its vertex, which has
        ``op`` and ``parents`` too: a walk sees every vertex once."""
        return tuple(v if type(v) is Tensor else v.out() or v for v in self.inputs)


def constant(data):
    return Tensor(data, requires_grad=False, op="const")


def _make(data, op, parents, rule):
    out = Tensor(data, op=op)
    if any([p.requires_grad for p in parents]):  # a list: faster than a generator on 1-3 parents
        out.requires_grad = True
        out.node = Node(op, [p.node or p for p in parents], rule, out)
    return out


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def scale(a, s):
    s = float(s)
    return _make(a.data * s, "scale", (a,), lambda g: (g * s,))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")

    # each operand is read only for the other's gradient
    x = a.data if b.requires_grad else None
    y = b.data if a.requires_grad else None
    return _make(a.data @ b.data, "matmul", (a, b),
                 lambda g: (None if y is None else g @ y.T, None if x is None else x.T @ g))


def linear(x, w, b):
    """``x @ w + b``, the bias row ``b`` added to every row, as one node."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: incompatible x {x.shape}, w {w.shape}, b {b.shape}")
    out = x.data @ w.data
    out += b.data
    xd = x.data if w.requires_grad else None
    wd = w.data if x.requires_grad else None

    def rule(g):
        return (None if wd is None else g @ wd.T, None if xd is None else xd.T @ g, g.sum(axis=0))

    return _make(out, "linear", (x, w, b), rule)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: needs a 2-D operand, got {a.shape}")
    return _make(a.data.T, "transpose", (a,), lambda g: (g.T,))


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    before = a.shape
    return _make(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(before),))


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


def _gather_ids(table, ids):
    """``ids`` as a flat int array of rows of the 2-D ``table``."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding: ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embedding: index out of range for table with {table.shape[0]} rows")
    return idx


def _row_sums(g, idx, shape):
    """A (``shape``) table gradient: each row the sum of the rows of ``g``
    gathered from it, by a stable sort of ``idx`` and one segmented sum per
    distinct id, in place of an unbuffered scatter-add. Rows never indexed
    stay exactly zero."""
    buf = np.zeros(shape)
    if idx.size:
        order = np.argsort(idx, kind="stable")
        ids = idx[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        buf[ids[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return buf


def embedding(table, ids, *summed):
    """Row gather: out[i] = table[ids[i]]. Each further ``(table, ids)``
    pair of ``summed`` adds its gathered rows in place, left to right, as
    one node: the floats of a gather per table and an ``add`` node per
    pair, with one array kept. Backward gives each table the rows of the
    gradient summed by id (see ``_row_sums``)."""
    pairs = ((table, ids),) + summed
    tables = tuple(t for t, _ in pairs)
    idxs = [_gather_ids(t, i) for t, i in pairs]
    out = table.data[idxs[0]]
    for t, idx in zip(tables[1:], idxs[1:]):
        if t.shape[1] != table.shape[1] or idx.shape != idxs[0].shape:
            raise ShapeError(f"embedding: {idx.size} rows of width {t.shape[1]} do not add "
                             f"onto {idxs[0].size} of width {table.shape[1]}")
        out += t.data[idx]
    shapes = [t.shape if t.requires_grad else None for t in tables]

    def rule(g):
        return tuple(None if shape is None else _row_sums(g, idx, shape)
                     for shape, idx in zip(shapes, idxs))

    return _make(out, "embedding", tables, rule)


def _segments(offsets, rows, op):
    """``offsets`` as an int array, checked to be B + 1 ascending row bounds
    from 0 to ``rows`` (sample i owns rows offsets[i]:offsets[i + 1]); the B
    segment lengths; and the shortest and longest of them, as ints. Those
    two come from a list: on the few samples of a decode step, two numpy
    reductions cost more than the rest of the check."""
    off = np.asarray(offsets, dtype=np.int64)
    if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != rows:
        raise ShapeError(f"{op}: offsets of shape {off.shape} do not bound {rows} rows")
    lengths = off[1:] - off[:-1]
    listed = lengths.tolist()
    shortest, longest = min(listed), max(listed)
    if shortest < 0:
        raise ShapeError(f"{op}: offsets are not ascending")
    return off, lengths, shortest, longest


def _padded_slots(off, lengths, shortest, longest):
    """Each row's index in the (B * longest)-row padded layout of checked
    ``off``; None when every segment is the longest, and packed rows are
    already that layout."""
    if shortest == longest:
        return None
    return np.arange(off[-1]) + np.repeat(np.arange(len(lengths)) * longest - off[:-1], lengths)


def segment_mean(a, offsets):
    """Mean of each segment of rows of ``a`` bounded by ``offsets`` (see
    ``_segments``): (B, d), all summed in one segmented reduction, each
    exactly as its segment's alone would be."""
    if a.data.ndim != 2:
        raise ShapeError(f"segment_mean: needs a 2-D operand, got {a.shape}")
    off, counts, shortest, _ = _segments(offsets, a.shape[0], "segment_mean")
    if shortest == 0:
        raise ContractError("segment_mean: empty segment")
    means = np.add.reduceat(a.data, off[:-1], axis=0) / counts[:, None]
    return _make(means, "segment_mean", (a,), lambda g: ((g / counts[:, None]).repeat(counts, axis=0),))


def pair_contrast(x, same):
    """Sum over the rows r of ``x`` (B, d) of r's distance mass to the rows
    ``same`` (B, B bool) marks as sharing its label, over its distance mass
    to all rows, as one node. A pair at exactly zero distance takes no part
    (its distance has no gradient); a row with no same-label partner at
    nonzero distance adds 0, and with no row left the result is constant 0.
    Forward and backward do the floats of the graph this node replaced, in
    its order: live pairs j < k gathered as two row blocks, distances the
    roots of (diff * diff) @ ones, masses incidence-matrix products."""
    if x.data.ndim != 2 or np.shape(same) != (x.shape[0],) * 2:
        raise ShapeError(f"pair_contrast: rows {x.shape} and label matrix {np.shape(same)}")
    xd, (b, d) = x.data, x.shape
    j, k = np.triu_indices(b, 1)
    sq = xd[j] - xd[k]
    sq *= sq
    live = sq.sum(axis=1) > 0.0
    j, k, sq = (j, k, sq) if live.all() else (j[live], k[live], sq[live])
    paired = np.asarray(same, dtype=bool)[j, k]
    active = np.zeros(b, dtype=bool)
    active[j[paired]] = active[k[paired]] = True
    if not active.any():
        return constant(0.0)
    active = slice(None) if active.all() else active  # every row: views, not copies
    root = np.sqrt(sq @ np.ones((d, 1)))
    del sq

    def products(by_same, by_all, t=False):
        """(m_same @ by_same, m_all @ by_all), ``t`` transposing both: m_same is m_all masked."""
        m = np.zeros((b, len(j)))
        m[j, np.arange(len(j))] = m[k, np.arange(len(j))] = 1.0
        m = m[active]
        by_all = (m.T if t else m) @ by_all
        m *= paired
        return (m.T if t else m) @ by_same, by_all

    numer, denom = products(root, root)

    def rule(g):
        gr = np.full(numer.shape, float(np.asarray(g).reshape(())))
        by_same, by_all = products(gr / denom, -gr * numer / (denom * denom), t=True)
        gsq = ((by_same + by_all) * 0.5 / root) @ np.ones((1, d))
        diff = xd[j] - xd[k]
        gdiff = gsq * diff + gsq * diff
        return (_row_sums(gdiff, j, (b, d)) + _row_sums(gdiff * -1.0, k, (b, d)),)

    return _make((numer / denom).sum(), "pair_contrast", (x,), rule)


# ---------------------------------------------------------------------------
# nonlinearities and normalisation


def _by_rows(kernel, ins, shapes):
    """``kernel(*ins, *outs, s)`` once per block of whole rows, at most
    ``_BLOCK`` elements, of ``ins`` (None stays None) and of new outputs of
    ``shapes``, with ``s`` scratch of the block's shape; returns the outputs.
    An input within ``_BLOCK`` is one block, and an empty one none."""
    x = ins[0]
    step = max(1, _BLOCK * len(x) // max(1, x.size))
    outs = tuple(np.empty(shape) for shape in shapes)
    scratch = np.empty((min(step, len(x)),) + x.shape[1:])
    for lo in range(0, len(x), step):
        blocks = [None if a is None else a[lo:lo + step] for a in ins + outs]
        kernel(*blocks, scratch[:len(blocks[0])])
    return outs


def _gelu_rows(x, slope, out, s):
    np.multiply(x, x, s)
    s *= x
    np.add(x, np.multiply(s, _GELU_A, s), s)
    t = np.tanh(np.multiply(s, _GELU_C, s), out)  # in the output's buffer until t + 1 is taken
    if slope is not None:
        _gelu_slope_rows(x, t, slope, s)
    np.add(t, 1.0, s)
    np.multiply(x, 0.5, out)
    out *= s


def _gelu_slope_rows(x, t, slope, s):
    """Into ``slope``, the bracket gelu's rule multiplies its gradient by,
    d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3a x^2)."""
    np.multiply(x, 0.5, slope)
    s = np.multiply(t, t, s)
    slope *= np.subtract(1.0, s, s)
    np.multiply(x, x, s)
    s *= 3.0 * _GELU_A
    s += 1.0
    slope *= np.multiply(s, _GELU_C, s)
    np.multiply(np.add(t, 1.0, s), 0.5, s)
    np.add(s, slope, slope)


def gelu(a):
    """tanh-form GELU: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    The powers are products: ``x ** 3`` would go through libm ``pow``, which
    is many times slower than two multiplies."""
    x = a.data
    slope = np.empty(x.shape) if a.requires_grad else None
    (out,) = _by_rows(_gelu_rows, (x, slope), (x.shape,))
    return _make(out, "gelu", (a,), lambda g: (np.multiply(g, slope),))


def layer_norm(a, gain, bias, residual=None, eps=1e-5):
    """Normalise each row of ``a`` (of ``a + residual``, summed inside the
    node, when given) to zero mean and unit variance; then scale and shift."""
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm: needs a 2-D operand, got {a.shape}")
    n = a.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not fit {a.shape}")
    if residual is not None and residual.shape != a.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} does not fit {a.shape}")
    gd, bd = gain.data, bias.data
    nf = float(n)  # the divisor numpy makes of int n, given ready: the same bits, sooner

    def rows(x, r, xhat, inv, out, s):
        if r is not None:
            x = np.add(x, r, xhat)
        # row means as sum / n: ndarray.mean's bits, without its Python-level wrapper
        m = x.sum(axis=1, keepdims=True)
        np.subtract(x, np.divide(m, nf, m), xhat)
        np.multiply(xhat, xhat, s)
        var = s.sum(axis=1, keepdims=True)  # what np.var computes, without its own centring pass
        var /= nf
        var += eps
        np.divide(1.0, np.sqrt(var, var), inv)
        xhat *= inv
        np.multiply(xhat, gd, out)
        out += bd

    x = a.data
    xhat, inv, out = _by_rows(rows, (x, None if residual is None else residual.data),
                              (x.shape, (len(x), 1), x.shape))
    parents = (a, gain, bias) if residual is None else (a, residual, gain, bias)
    inputs = len(parents) - 2

    def rule_rows(xhat, g, inv, dx, h):
        np.multiply(g, gd, h)
        hm = h.sum(axis=1, keepdims=True)
        proj = np.multiply(h, xhat, dx).sum(axis=1, keepdims=True)
        h -= np.divide(hm, nf, hm)
        h -= np.multiply(xhat, np.divide(proj, nf, proj), dx)
        np.multiply(inv, h, dx)

    def rule(g):
        dx = np.multiply(g, xhat)
        dgain, dbias = dx.sum(axis=0), g.sum(axis=0)
        _by_rows(rule_rows, (xhat, g, inv, dx), ())
        return (dx,) * inputs + (dgain, dbias)

    return _make(out, "layer_norm", parents, rule)


def _split(x, slot, b, rows, heads):
    """Packed rows (N, d) -> (B, heads, rows, d / heads): scattered into a
    zeroed (B * rows)-row buffer at ``slot`` first, unless packed rows
    already are that layout (``slot`` None)."""
    d = x.shape[1]
    if slot is not None:
        x, packed = np.zeros((b * rows, d)), x
        x[slot] = packed
    return x.reshape(b, rows, heads, d // heads).transpose(0, 2, 1, 3)


def _merge(x, slot):
    """(B, heads, rows, hd) -> packed rows: ``_split`` undone."""
    b, heads, rows, hd = x.shape
    x = x.transpose(0, 2, 1, 3).reshape(b * rows, heads * hd)
    return x if slot is None else x[slot]


class HeadLayout:
    """Keys and values of B samples in ``attention``'s padded per-head layout.

    ``k`` and ``v`` are (B, heads, L, d / heads) arrays, L the most keys any
    sample has; ``lengths`` holds each sample's key count, and ``shortest``
    the least. ``past_end`` is the (B, 1, L) mask of the keys past each
    sample's end, None when every sample has all L. ``slot`` is each packed
    row's index in the (B * L)-row layout, None when packed rows already are
    that layout. A layout holds arrays, not tensors, so the keys and values
    in it get no gradient."""

    __slots__ = ("k", "v", "lengths", "shortest", "past_end", "slot")

    def __init__(self, k, v, lengths, slot=None):
        self.k, self.v, self.lengths, self.slot = k, v, lengths, slot
        self.shortest = min(lengths.tolist())
        longest = k.shape[2]
        self.past_end = (None if self.shortest == longest
                         else (np.arange(longest) >= lengths[:, None])[:, None])


def head_layout(k, v, heads, offsets):
    """``attention``'s layout step for keys and values: packed (N, d) arrays
    ``k`` and ``v``, sample i owning rows offsets[i]:offsets[i + 1], split
    into a ``HeadLayout``. Its ``k`` and ``v`` are views of ``k`` and ``v``
    when every sample has the same key count."""
    off, lengths, shortest, longest = _segments(offsets, k.shape[0], "attention")
    slot = _padded_slots(off, lengths, shortest, longest)
    b = len(lengths)
    return HeadLayout(_split(k, slot, b, longest, heads), _split(v, slot, b, longest, heads),
                      lengths, slot)


def attention(q, k, v, heads, q_offsets, k_offsets, causal=False, layout=None):
    """Multi-head scaled dot-product attention over a batch of B samples, as one node.

    Rows are packed in the ``cu_seqlens`` layout: ``q_offsets`` and
    ``k_offsets`` each hold B + 1 row bounds, sample i owning query rows
    q_offsets[i]:q_offsets[i + 1] and key and value rows
    k_offsets[i]:k_offsets[i + 1]. The op scatters the rows into
    (B, heads, L, d / heads) buffers padded to the longest sample, so no
    query sees another sample's keys, and gathers the outputs back; its
    backward does the reverse. It hides every key past its sample's end.
    With ``causal``, query i of a sample with lq queries and lk >= lq keys
    sees key j only when j - i <= lk - lq: bottom-right aligned, so a
    sample's last query sees all its keys, as cached decoding needs. Column
    block h of width d / heads belongs to head h. Returns the per-head
    outputs side by side, one row per row of ``q``.

    ``layout``, when given, stands in for ``k``, ``v`` and ``k_offsets``
    (then None): keys and values already in the per-head layout, as
    ``head_layout`` splits them or a decoder cache writes them. The op skips
    its own layout step and records no node, as the layout holds arrays: a
    ``q`` that needs a gradient is a ContractError.
    """
    if layout is None and (q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape
                           or q.shape[1] != k.shape[1]):
        raise ShapeError(f"attention: incompatible q {q.shape}, k {k.shape}, v {v.shape}")
    if layout is not None and q.requires_grad:
        raise ContractError("attention: keys and values in a layout take no gradient, so q may not")
    d = q.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    hd = d // heads
    qoff, qlen, qmin, lq = _segments(q_offsets, q.shape[0], "attention")
    keys = head_layout(k.data, v.data, heads, k_offsets) if layout is None else layout
    klen, lk = keys.lengths, keys.k.shape[2]
    if len(qlen) != len(klen) or keys.k.shape[1::2] != (heads, hd):
        raise ShapeError(f"attention: {len(qlen)} query samples of width {d} but keys of "
                         f"{len(klen)} samples in a {keys.k.shape} layout")
    if causal and lq > keys.shortest and (qlen > klen).any():
        raise ShapeError("attention: a causal sample has more queries than keys")
    b = len(qlen)
    qslot, kslot = _padded_slots(qoff, qlen, qmin, lq), keys.slot
    # the keys each query may not see: none are hidden when every sample has
    # all lk keys and, if causal, each query sees them all
    hidden = keys.past_end  # (B, 1, Lk): past each sample's end
    if causal and lq > 1:  # (B, Lq, Lk): ahead of each query
        ahead = np.arange(lk) > np.arange(lq)[:, None] + (klen - qlen)[:, None, None]
        hidden = ahead if hidden is None else ahead | hidden
    norm = 1.0 / float(np.sqrt(hd))

    def split(x, slot, rows):
        return _split(x, slot, b, rows, heads)

    z = split(q.data, qslot, lq) @ keys.k.swapaxes(2, 3)
    z *= norm
    if hidden is not None:
        z += np.where(hidden, _NEG_INF, 0.0)[:, None]
    z -= z.max(axis=3, keepdims=True)
    p = np.exp(z, out=z)
    p /= p.sum(axis=3, keepdims=True)
    out = _merge(p @ keys.v, qslot)
    if layout is not None:
        return Tensor(out, op="attention")

    # the rule splits q, k and v afresh from their packed rows: holding the
    # padded copies until backward would keep each side twice
    want_q, want_k, want_v = q.requires_grad, k.requires_grad, v.requires_grad
    qd, kd, vd = q.data if want_k else None, k.data, v.data

    def rule(g):
        gh = split(g, qslot, lq)
        dp = gh @ split(vd, kslot, lk).swapaxes(2, 3)
        dv = _merge(p.swapaxes(2, 3) @ gh, kslot) if want_v else None
        del gh
        dp -= (dp * p).sum(axis=3, keepdims=True)
        dz = np.multiply(p, dp, dp)  # dz = p * (dp - (dp * p).sum(...)) * norm, in dp's buffer
        dz *= norm
        dq = _merge(dz @ split(kd, kslot, lk), qslot) if want_q else None
        dk = _merge(dz.swapaxes(2, 3) @ split(qd, qslot, lq), kslot) if want_k else None
        return dq, dk, dv

    return _make(out, "attention", (q, k, v), rule)


def softmax_cross_entropy(logits, targets, hidden=None):
    """Mean over rows of -log softmax(logits)[target].

    ``targets`` are class indices, one per logit row. ``hidden``, when
    given, is a bool array of the logits' shape: -1e30 is added to the
    logits it marks, which takes them out of their rows' softmax, as
    ``attention`` hides keys; no target may be hidden. Computed with the
    usual max-subtraction so large logits do not overflow.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    b, v = logits.shape
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != (b,) or (hidden is not None and np.shape(hidden) != (b, v)):
        raise ShapeError(f"softmax_cross_entropy: {b} rows of {v} but {idx.shape} targets and "
                         f"a hidden mask of {np.shape(hidden)}")
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise IndexError(f"softmax_cross_entropy: target outside [0, {v})")
    if hidden is not None and hidden[np.arange(b), idx].any():
        raise ContractError("softmax_cross_entropy: a target is hidden")
    x = logits.data if hidden is None else logits.data + np.where(hidden, _NEG_INF, 0.0)
    z = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(b), idx]
    out = losses.mean()
    if not np.isfinite(out):
        raise NumericError("non-finite values produced by softmax_cross_entropy")

    def rule(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), idx] -= 1.0
        return (p * (float(np.asarray(g).reshape(())) / b),)

    return _make(out, "softmax_cross_entropy", (logits,), rule)


def dropout(a, rate, rng):
    """Inverted dropout driven by an explicit RNG stream. rate == 0 is the identity."""
    if not (0.0 <= rate < 1.0):
        raise ContractError(f"dropout: rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    # x * 1.0 and x * 0.0 are exact and 1.0 * factor is factor, so the bool
    # mask gives the bytes of a float64 one, signed zeros, infinities and
    # NaNs included, and the node keeps one byte an element, not eight
    out = a.data * keep
    out *= factor
    return _make(out, "dropout", (a,), lambda g: (g * keep * factor,))


# ---------------------------------------------------------------------------
# graph walking


def _topological_order(loss):
    """Every vertex behind the tensor ``loss``, each after all of its
    parents: a ``Node``, or a leaf ``Tensor``."""
    order, seen = [], set()
    stack = [(loss.node or loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is Node:
            stack.extend((p, False) for p in node.inputs if id(p) not in seen)
    return order


def backward(loss):
    """``{leaf: d(loss)/d(leaf)}`` for every leaf that requires a gradient
    and that ``loss`` reaches; a leaf with no path to it is left out.

    ``loss`` must hold a single value. Each gradient is C-contiguous, so a
    sum over it never depends on the view a rule returned (``transpose``'s
    is one), and may be the very array another leaf is given (``add`` hands
    both parents one): a caller never writes into it. The pass consumes the
    graph, so backward through a vertex an earlier call consumed is a
    ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data.reshape(())):
        raise NumericError("backward: loss is not finite")
    order = _topological_order(loss)
    if any(type(v) is Node and v.rule is None for v in order):
        raise ContractError("backward: the graph was consumed by an earlier backward")
    grads, leaves = {id(order[-1]): np.ones_like(loss.data)}, {}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if type(node) is Tensor:
            if g is not None and node.requires_grad:
                leaves[node] = np.ascontiguousarray(g)
            continue
        if g is not None:
            for p, pg in zip(node.inputs, node.rule(g)):
                if pg is not None and p.requires_grad:
                    prev = grads.get(id(p))
                    grads[id(p)] = pg if prev is None else prev + pg
        node.rule, node.inputs = None, ()
    return leaves
