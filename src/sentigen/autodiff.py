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
``backward(loss, grads)`` continues the sums of an earlier call's
``grads``, so a loss that is a sum of terms can be backpropagated one term
at a time, each term's graph freed before the next is built. The result
has the bytes of one pass over the sum when the terms' graphs share only
leaves and are taken left to right: one pass reaches a leaf from the left
term's vertices before the right's, and each vertex in the order a pass
over its own term alone would.

``linear``, ``ffn`` (``linear``, GELU, ``linear``), ``attention`` (q and
v ``linear``, k ``matmul``, multi-head attention, then the output
``linear``), ``layer_norm``'s ``residual`` and ``embedding``'s extra
``(table, ids)`` pairs each fuse several nodes into one, with the same
floats in the same order; ``pair_contrast`` is a whole loss in one node.
Rules keep only what they read, and a block's node only its inputs:
``attention``'s its inputs and softmax weights, from which it projects q,
k and v again and rebuilds the heads' outputs, not padded copies of them;
``ffn``'s its input and weights, from which it rebuilds the hidden rows
and their GELU output and slope; ``dropout``'s a bool mask; and
``pair_contrast``'s its input, from which it rebuilds its pair
differences. Recomputing is chosen where it is cheap in arithmetic and
the array is large. ``Segments`` owns packed rows' bounds and their padded
per-head layout, for ``attention``, ``attend`` (attention's forward over a
``HeadLayout``; it records no node) and ``segment_mean``. The module keeps
only the ops the rest of the package calls.

GELU and ``layer_norm`` work in place over cache-sized row blocks
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
_BLOCK = 1 << 14  # elements in a row block of GELU and layer_norm: 128 KB of float64
_NEG_INF = -1e30  # added to a hidden logit (a key, a class): its exp underflows to 0
_LN_EPS = 1e-5  # added to each row variance in layer_norm


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


class Segments:
    """B samples' rows packed end to end (the ``cu_seqlens`` layout),
    checked: ``off`` is ``offsets`` as B + 1 ascending int row bounds from 0
    to ``rows`` (sample i owns rows off[i]:off[i + 1]; ``op`` names the
    caller in an error), ``lengths`` the B segment lengths, and ``shortest``
    and ``longest`` their least and most as ints, from a list: on a decode
    step's few samples, two numpy reductions cost more than the rest of the
    check. ``slot`` is each row's index in the (B * longest)-row padded
    layout; None when no segment is padded, and packed rows already are it."""

    __slots__ = ("off", "lengths", "shortest", "longest", "slot")

    def __init__(self, offsets, rows, op):
        off = np.asarray(offsets, dtype=np.int64)
        if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != rows:
            raise ShapeError(f"{op}: offsets of shape {off.shape} do not bound {rows} rows")
        lengths = off[1:] - off[:-1]
        listed = lengths.tolist()
        shortest, longest = min(listed), max(listed)
        if shortest < 0:
            raise ShapeError(f"{op}: offsets are not ascending")
        self.off, self.lengths, self.shortest, self.longest = off, lengths, shortest, longest
        self.slot = (None if shortest == longest else
                     np.arange(rows) + np.repeat(np.arange(len(lengths)) * longest - off[:-1], lengths))

    def split(self, x, heads):
        """Packed rows (N, d) -> (B, heads, longest, d / heads), scattered
        into a zeroed padded buffer at ``slot`` first unless it is None."""
        b, d = len(self.lengths), x.shape[1]
        if self.slot is not None:
            x, packed = np.zeros((b * self.longest, d)), x
            x[self.slot] = packed
        return x.reshape(b, self.longest, heads, d // heads).transpose(0, 2, 1, 3)

    def merge(self, x):
        """(B, heads, longest, hd) -> packed rows: ``split`` undone."""
        b, heads, rows, hd = x.shape
        x = x.transpose(0, 2, 1, 3).reshape(b * rows, heads * hd)
        return x if self.slot is None else x[self.slot]


def segment_mean(a, offsets):
    """Mean of each segment of rows of ``a`` bounded by ``offsets`` (see
    ``Segments``): (B, d), all summed in one segmented reduction, each
    exactly as its segment's alone would be."""
    if a.data.ndim != 2:
        raise ShapeError(f"segment_mean: needs a 2-D operand, got {a.shape}")
    rows = Segments(offsets, a.shape[0], "segment_mean")
    if rows.shortest == 0:
        raise ContractError("segment_mean: empty segment")
    counts = rows.lengths
    means = np.add.reduceat(a.data, rows.off[:-1], axis=0) / counts[:, None]
    return _make(means, "segment_mean", (a,), lambda g: ((g / counts[:, None]).repeat(counts, axis=0),))


def pair_contrast(x, same):
    """Sum over the rows r of ``x`` (B, d) of r's distance mass to the rows
    ``same`` (B, B bool) marks as sharing its label, over its distance mass
    to all rows, as one node. A pair at exactly zero distance takes no part
    (its distance has no gradient); a row with no same-label partner at
    nonzero distance adds 0, and with no row left the result is constant 0.
    Each row's masses are sums over the live pairs j < k that it ends, one
    ``np.bincount`` per end; the rule gathers each pair's distance gradient
    from its ends' per-row coefficients and scatters the pair differences
    back with ``_row_sums``."""
    if x.data.ndim != 2 or np.shape(same) != (x.shape[0],) * 2:
        raise ShapeError(f"pair_contrast: rows {x.shape} and label matrix {np.shape(same)}")
    xd, (b, d) = x.data, x.shape
    j, k = np.triu_indices(b, 1)
    root = np.sqrt(np.square(xd[j] - xd[k]).sum(axis=1))
    live = root > 0.0
    j, k, root = (j, k, root) if live.all() else (j[live], k[live], root[live])
    paired = np.asarray(same, dtype=bool)[j, k]
    if not paired.any():
        return constant(0.0)

    def per_row(weights):
        """Each row's sum of ``weights``, one per live pair, over the pairs it ends."""
        return np.bincount(j, weights, b) + np.bincount(k, weights, b)

    numer, denom = per_row(root * paired), per_row(root)
    denom[numer == 0.0] = 1.0  # a row with no same-label pair adds 0/1, and takes no gradient

    def rule(g):
        g = float(np.asarray(g).reshape(()))
        by_same, by_all = g / denom, -g * numer / (denom * denom)
        groot = (by_same[j] + by_same[k]) * paired + (by_all[j] + by_all[k])
        diff = xd[j]
        diff -= xd[k]
        diff *= (groot / root)[:, None]  # d root / d x_j = diff / root = -d root / d x_k
        return (_row_sums(diff, j, (b, d)) - _row_sums(diff, k, (b, d)),)

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
    """tanh-form GELU, 0.5 x (1 + tanh(c (x + 0.044715 x^3))), of ``x``
    into ``out``, and its slope into ``slope`` unless that is None. The
    powers are products: ``x ** 3`` would go through libm ``pow``, which is
    many times slower than two multiplies."""
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
    """Into ``slope``, the bracket the GELU gradient is multiplied by,
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


def ffn(x, w1, b1, w2, b2):
    """A feed-forward block, ``linear(gelu(linear(x, w1, b1)), w2, b2)``,
    as one node that keeps only its input and the weights its rule reads,
    all but ``b2``. Its forward computes no slope and drops the (N, ffn)
    hidden rows once it has the output; its rule rebuilds them (``x @ w1``,
    then ``+= b1``), runs the GELU kernel again, with the slope, and frees
    the GELU output once it has formed w2's gradient. Each array has the
    bytes two ``linear`` nodes and a GELU node would give: the same kernels
    on the same layouts."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2 or x.shape[1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"ffn: incompatible x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape}")
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data

    def gelu_hidden(slope=None):
        h = xd @ w1d
        h += b1d
        return _by_rows(_gelu_rows, (h, slope), (h.shape,))[0]

    out = gelu_hidden() @ w2d
    out += b2.data
    want_x, want_w1, want_w2 = x.requires_grad, w1.requires_grad, w2.requires_grad

    def rule(g):
        slope = np.empty((len(xd), len(b1d)))
        h = gelu_hidden(slope)
        dw2 = h.T @ g if want_w2 else None
        del h
        dh = g @ w2d.T
        dh *= slope
        del slope
        return (dh @ w1d.T if want_x else None, xd.T @ dh if want_w1 else None, dh.sum(axis=0),
                dw2, g.sum(axis=0))

    return _make(out, "ffn", (x, w1, b1, w2, b2), rule)


def layer_norm(a, gain, bias, residual=None):
    """Normalise each row of ``a`` (of ``a + residual``, summed inside the
    node, when given) to zero mean and unit variance, ``_LN_EPS`` added to
    the variance; then scale and shift."""
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
        var += _LN_EPS
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


class HeadLayout:
    """Keys and values of B samples in ``attention``'s padded per-head layout:
    ``k`` and ``v`` are (B, heads, L, d / heads) arrays, L the most keys any
    sample has, ``keys`` the ``Segments`` of their packed rows, and
    ``past_end`` the (B, 1, L) mask of the keys past each sample's end, None
    when every sample has all L. A layout holds arrays, not tensors, so the
    keys and values in it get no gradient."""

    __slots__ = ("k", "v", "keys", "past_end")

    def __init__(self, k, v, keys):
        self.k, self.v, self.keys = k, v, keys
        self.past_end = (None if keys.slot is None
                         else (np.arange(keys.longest) >= keys.lengths[:, None])[:, None])


def head_layout(k, v, heads, offsets):
    """``attention``'s layout step for keys and values: packed (N, d) arrays
    ``k`` and ``v``, sample i owning rows offsets[i]:offsets[i + 1], split
    into a ``HeadLayout``. Its ``k`` and ``v`` are views of ``k`` and ``v``
    when every sample has the same key count."""
    d = k.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    keys = Segments(offsets, k.shape[0], "attention")
    return HeadLayout(keys.split(k, heads), keys.split(v, heads), keys)


def _attend(qd, layout, q_offsets, causal):
    """Attention's forward, which ``attention`` and ``attend`` share: packed
    query rows ``qd`` over the ``HeadLayout`` ``layout``, in its heads.
    Returns the packed output, the softmax weights ``p`` (B, heads, Lq, Lk),
    and the layout ``(queries, keys, norm)`` that ``attention``'s rule
    reads: two ``Segments`` and the score scale."""
    d = qd.shape[1]
    queries, keys = Segments(q_offsets, qd.shape[0], "attention"), layout.keys
    qlen, klen, lq, lk = queries.lengths, keys.lengths, queries.longest, keys.longest
    _, heads, _, hd = layout.k.shape
    if len(qlen) != len(klen) or heads * hd != d:
        raise ShapeError(f"attention: {len(qlen)} query samples of width {d} in {heads} heads "
                         f"but keys of {len(klen)} samples in a {layout.k.shape} layout")
    if causal and lq > keys.shortest and (qlen > klen).any():
        raise ShapeError("attention: a causal sample has more queries than keys")
    # the keys each query may not see: none are hidden when every sample has
    # all lk keys and, if causal, each query sees them all
    hidden = layout.past_end  # (B, 1, Lk): past each sample's end
    if causal and lq > 1:  # (B, Lq, Lk): ahead of each query
        ahead = np.arange(lk) > np.arange(lq)[:, None] + (klen - qlen)[:, None, None]
        hidden = ahead if hidden is None else ahead | hidden
    norm = 1.0 / float(np.sqrt(hd))

    z = queries.split(qd, heads) @ layout.k.swapaxes(2, 3)
    z *= norm
    if hidden is not None:
        z += np.where(hidden, _NEG_INF, 0.0)[:, None]
    z -= z.max(axis=3, keepdims=True)
    p = np.exp(z, out=z)
    p /= p.sum(axis=3, keepdims=True)
    return queries.merge(p @ layout.v), p, (queries, keys, norm)


def attention(x_q, x_kv, q, wk, v, o, heads, q_offsets, k_offsets, causal=False):
    """Multi-head scaled dot-product attention over a batch of B samples,
    with its projections, as one node: the queries are the rows of ``x_q``
    projected by the ``(w, b)`` pair ``q`` and the values the rows of
    ``x_kv`` projected by ``v``, as ``linear`` would, and the keys the rows
    of ``x_kv`` times ``wk``, unbiased: a key bias adds one constant to a
    query's row of scores, which softmax does not see. The heads' outputs,
    side by side, are then projected by the pair ``o``, as ``linear``
    would. Self-attention passes its rows as both ``x_q`` and ``x_kv``.

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
    block h of width d / heads belongs to head h. Returns one projected
    row per row of ``x_q``.

    The node keeps only ``x_q``, ``x_kv``, the weights and the softmax
    weights ``p``: not the heads' (N, d) outputs, which the forward drops
    once projected. Its rule projects and splits v once, rebuilds those
    outputs from ``p`` and v for ``o``'s weight gradient, reads v again
    for the scores' gradient and drops it, then projects k and q, each
    when it reads it; every gradient is ``linear``'s (for k, ``matmul``'s)
    on the same floats. Its parents are ``(x_q, *q, x_kv, wk, x_kv, *v,
    *o)``, so when ``x_q`` is ``x_kv`` its three gradients add onto it in
    q, k, v order, as three projection nodes' would.
    """
    projections = ((x_q, *q), (x_kv, wk), (x_kv, *v))  # (x, w) or (x, w, b): parents in order
    (wo, bo), width = o, q[1].shape if q[1].data.ndim == 1 else None
    if width is None or v[1].shape != width or any(
            x.data.ndim != 2 or w.shape != (x.shape[1],) + width for x, w, *_ in projections) or (
            wo.data.ndim != 2 or wo.shape[:1] != width or bo.shape != wo.shape[1:]):
        raise ShapeError(f"attention: incompatible x_q {x_q.shape}, x_kv {x_kv.shape} and "
                         f"projections {[t.shape for t in (*q, wk, *v, *o)]}")
    weights = tuple(tuple(t.data for t in projection) for projection in projections)

    def project(i):
        x, w, *b = weights[i]
        out = x @ w
        return np.add(out, *b, out=out) if b else out

    # q, then k and v, then the keys' layout: that order measured fastest
    mixed, p, (queries, keys, norm) = _attend(
        project(0), head_layout(project(1), project(2), heads, k_offsets), q_offsets, causal)
    out = mixed @ wo.data
    out += bo.data
    del mixed
    wants = tuple(tuple(t.requires_grad for t in projection) for projection in projections)
    (want_q, want_k, want_v), wod, want_wo = map(any, wants), wo.data, wo.requires_grad

    def rule(g):
        v = keys.split(project(2), heads)
        dwo = queries.merge(p @ v).T @ g if want_wo else None
        gh = queries.split(g @ wod.T, heads)
        dp = gh @ v.swapaxes(2, 3)
        del v
        dv = keys.merge(p.swapaxes(2, 3) @ gh) if want_v else None
        del gh
        dp -= (dp * p).sum(axis=3, keepdims=True)
        dz = np.multiply(p, dp, dp)  # dz = p * (dp - (dp * p).sum(...)) * norm, in dp's buffer
        dz *= norm
        dys = [queries.merge(dz @ keys.split(project(1), heads)) if want_q else None,
               keys.merge(dz.swapaxes(2, 3) @ queries.split(project(0), heads)) if want_k else None,
               dv]
        del dz, dv
        grads = ()
        for (x, w, *b), (wx, ww, *_) in zip(weights, wants):
            dy = dys.pop(0)  # q's, k's, then v's, each dropped once its gradients are formed
            grads += (None,) * (2 + len(b)) if dy is None else (
                dy @ w.T if wx else None, x.T @ dy if ww else None, *(dy.sum(axis=0) for _ in b))
        return grads + (dwo, g.sum(axis=0))

    return _make(out, "attention", sum(projections, ()) + (wo, bo), rule)


def attend(q, layout, q_offsets, causal=False):
    """``attention``'s forward for query rows ``q``, already projected,
    over keys and values already in its per-head layout: a ``HeadLayout``,
    as ``head_layout`` splits them or a decoder cache writes them, whose
    head count it takes. It records no node, as the layout holds arrays: a
    ``q`` that needs a gradient is a ContractError."""
    if q.requires_grad:
        raise ContractError("attend: keys and values in a layout take no gradient, so q may not")
    return Tensor(_attend(q.data, layout, q_offsets, causal)[0], op="attend")


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


def backward(loss, grads=None):
    """``{leaf: d(loss)/d(leaf)}`` for every leaf that requires a gradient
    and that ``loss`` reaches; a leaf with no path to it is left out.

    ``grads``, when given, is an earlier call's result: each leaf's sum
    starts from its entry there, and a leaf this graph does not reach keeps
    it, so the result is the gradient of the earlier loss plus ``loss``
    (the module docstring says when it has the bytes of one pass).

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
    leaves = dict(grads or {})
    grads = {id(leaf): g for leaf, g in leaves.items()}
    prev = grads.get(id(order[-1]))  # set only when ``loss`` is itself a leaf with an entry
    grads[id(order[-1])] = np.ones_like(loss.data) if prev is None else prev + 1.0
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
