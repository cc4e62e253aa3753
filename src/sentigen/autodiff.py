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
at a time, each term's graph freed before the next is built, with the bytes
of one pass over the sum when the terms' graphs share only leaves and are
taken left to right.

``linear``, ``ffn`` (``linear``, GELU, ``linear``), ``attention`` (q, k and
v projections, multi-head attention, the output ``linear``),
``layer_norm``'s ``residual``, and ``embedding``'s ``proj`` and extra
``(table, ids)`` pairs each fuse several nodes into one, with the same
floats in the same order: ``embedding`` takes a stream's tokens in through
the tied vocabulary projection, and ``token_loss`` scores a head through
it, a whole loss in one node, as ``pair_contrast`` is. Rules keep only what
they read, and a block's node only its inputs, from which ``attention``
rebuilds q, k, v and the heads' outputs, ``ffn`` its hidden rows,
``pair_contrast`` its pair differences and ``embedding`` its gathered rows;
``dropout`` keeps a bool mask. Recomputing is chosen where it is cheap in
arithmetic and the array is large. So a node that reads an input's array
in its rule (``ffn``, ``attention``, ``token_loss``) keeps the input's
``rebuild`` in its place when it has one, and calls it once in its rule: a
``layer_norm`` output is redone bit for bit from its own node's normalised
rows, so the graph holds one copy of it, not two. ``Segments`` owns
packed rows' bounds (``_bounds``, all ``segment_mean`` needs) and padded
per-head layout, for ``attention`` and ``attend`` (attention's forward
over a ``HeadLayout``; it records no node). The module keeps only the ops
the rest of the package calls.

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
    ``backward`` returns them. ``rebuild`` is None, or a function that
    returns ``data`` bit for bit from arrays its own node keeps: only a
    recorded ``layer_norm`` sets one."""

    __slots__ = ("data", "requires_grad", "op", "node", "rebuild", "__weakref__")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.node = self.rebuild = None

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


def _make(data, op, parents, rule, rebuild=None):
    out = Tensor(data, op=op)
    if any([p.requires_grad for p in parents]):  # a list: faster than a generator on 1-3 parents
        out.requires_grad = True
        out.node = Node(op, [p.node or p for p in parents], rule, out)
        out.rebuild = rebuild
    return out


def _kept(t):
    """What a rule that reads ``t``'s array keeps: ``t.rebuild`` when it
    has one, else the array. ``_read`` gives the array back."""
    return t.data if t.rebuild is None else t.rebuild


def _read(kept):
    return kept if type(kept) is np.ndarray else kept()


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def scale(a, s):
    s = float(s)
    return _make(a.data * s, "scale", (a,), lambda g: (g * s,))


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


def concat_rows(parts):
    """The rows of ``parts`` stacked in order, a 1-D part as one row."""
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_rows: empty input")
    if any(p.data.ndim not in (1, 2) or p.shape[-1] != parts[0].shape[-1] for p in parts):
        raise ShapeError(f"concat_rows: inconsistent shapes {[p.shape for p in parts]}")
    shapes = [p.shape for p in parts]
    bounds = np.cumsum([0] + [len(np.atleast_2d(p.data)) for p in parts])

    def rule(g):
        return tuple(g[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds[:-1], bounds[1:], shapes))

    return _make(np.vstack([p.data for p in parts]), "concat_rows", parts, rule)


def _gather_ids(table, ids, op="embedding"):
    """``ids`` as a flat int array of rows of the 2-D ``table``, for ``op``."""
    if table.data.ndim != 2:
        raise ShapeError(f"{op}: table must be 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"{op}: ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"{op}: index out of range for table with {table.shape[0]} rows")
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


def embedding(table, ids, *summed, proj=None):
    """Row gather: out[i] = table[ids[i]], times the 2-D ``proj`` when one
    is given. Each further ``(table, ids)`` pair of ``summed`` then adds its
    gathered rows in place, left to right, all as one node (parents
    ``table``, ``proj``, the summed tables): the floats of a gather per
    table, a product and an ``add`` node per pair, with one array kept.
    Backward gives each table the rows of the gradient summed by id (see
    ``_row_sums``), the first through ``proj``, and ``proj`` its product
    with the first table's rows, gathered again from the ids."""
    pairs = ((table, ids),) + summed
    tables = tuple(t for t, _ in pairs)
    idxs = [_gather_ids(t, i) for t, i in pairs]
    out = table.data[idxs[0]]
    if proj is not None:
        if proj.data.ndim != 2 or proj.shape[0] != out.shape[1]:
            raise ShapeError(f"embedding: projection {proj.shape} does not fit rows of width "
                             f"{out.shape[1]}")
        out = out @ proj.data
    for t, idx in zip(tables[1:], idxs[1:]):
        if t.shape[1] != out.shape[1] or idx.shape != idxs[0].shape:
            raise ShapeError(f"embedding: {idx.size} rows of width {t.shape[1]} do not add "
                             f"onto {idxs[0].size} of width {out.shape[1]}")
        out += t.data[idx]
    shapes = [t.shape if t.requires_grad else None for t in tables]
    projected = proj is not None
    pd = proj.data if projected and table.requires_grad else None
    td = table.data if projected and proj.requires_grad else None

    def rule(g):  # proj's gradient first, as the chain's matmul rule ran before the gathers'
        mid = (None if td is None else td[idxs[0]].T @ g,) if projected else ()
        grads = [None if shape is None else _row_sums(g if pd is None or i else g @ pd.T, idx, shape)
                 for i, (shape, idx) in enumerate(zip(shapes, idxs))]
        return (grads[0], *mid, *grads[1:])

    return _make(out, "embedding", tables if proj is None else (table, proj) + tables[1:], rule)


def _bounds(offsets, rows, op):
    """``offsets``, B + 1 ascending int bounds of packed rows from 0 to
    ``rows`` (``cu_seqlens``), checked for ``op``; the B lengths; and their
    least and most as ints, from a list: faster on a decode step's few."""
    off = np.asarray(offsets, dtype=np.int64)
    if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != rows:
        raise ShapeError(f"{op}: offsets of shape {off.shape} do not bound {rows} rows")
    lengths = off[1:] - off[:-1]
    listed = lengths.tolist()
    shortest, longest = min(listed), max(listed)
    if shortest < 0:
        raise ShapeError(f"{op}: offsets are not ascending")
    return off, lengths, shortest, longest


class Segments:
    """``_bounds``' ``off``, ``lengths``, ``shortest`` and ``longest``, and each
    row's ``slot`` in the (B * longest)-row padded layout (None if unpadded)."""

    __slots__ = ("off", "lengths", "shortest", "longest", "slot")

    def __init__(self, offsets, rows, op):
        self.off, self.lengths, self.shortest, self.longest = _bounds(offsets, rows, op)
        self.slot = (None if self.shortest == self.longest else np.arange(rows) + np.repeat(
            np.arange(len(self.lengths)) * self.longest - self.off[:-1], self.lengths))

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
    ``_bounds``): (B, d), all summed in one segmented reduction, each
    exactly as its segment's alone would be."""
    if a.data.ndim != 2:
        raise ShapeError(f"segment_mean: needs a 2-D operand, got {a.shape}")
    off, counts, shortest, _ = _bounds(offsets, a.shape[0], "segment_mean")
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
    as one node that keeps only its input (its rebuild, when it has one)
    and the weights its rule reads, all but ``b2``. Its forward computes no slope and drops the (N, ffn)
    hidden rows once it has the output; its rule rebuilds them (``x @ w1``,
    then ``+= b1``), runs the GELU kernel again, with the slope, and frees
    the GELU output once it has formed w2's gradient. Each array has the
    bytes two ``linear`` nodes and a GELU node would give: the same kernels
    on the same layouts."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2 or x.shape[1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"ffn: incompatible x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape}")
    xk, w1d, b1d, w2d = _kept(x), w1.data, b1.data, w2.data

    def gelu_hidden(xd, slope=None):
        h = xd @ w1d
        h += b1d
        return _by_rows(_gelu_rows, (h, slope), (h.shape,))[0]

    out = gelu_hidden(x.data) @ w2d
    out += b2.data
    want_x, want_w1, want_w2 = x.requires_grad, w1.requires_grad, w2.requires_grad

    def rule(g):
        xd = _read(xk)
        slope = np.empty((len(xd), len(b1d)))
        h = gelu_hidden(xd, slope)
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

    def rebuild():  # the output from the rule's xhat, elementwise as the blocks made it
        y = np.multiply(xhat, gd)
        y += bd
        return y

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

    return _make(out, "layer_norm", parents, rule, rebuild)


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

    The node keeps only ``x_q``, ``x_kv`` (or their rebuilds, called once
    each when its rule runs), the weights and the softmax weights ``p``:
    not the heads' (N, d) outputs, which the forward drops once projected. Its rule projects and splits v once, rebuilds those
    outputs from ``p`` and v for ``o``'s weight gradient, reads v again
    for the scores' gradient and drops it, then projects k and q, each
    when it reads it; every gradient is ``linear``'s (for k, unbiased)
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
    weights = tuple(tuple(t.data for t in projection[1:]) for projection in projections)

    def project(x, i):
        w, *b = weights[i]
        out = x @ w
        return np.add(out, *b, out=out) if b else out

    # q, then k and v, then the keys' layout: that order measured fastest
    mixed, p, (queries, keys, norm) = _attend(
        project(x_q.data, 0),
        head_layout(project(x_kv.data, 1), project(x_kv.data, 2), heads, k_offsets), q_offsets, causal)
    out = mixed @ wo.data
    out += bo.data
    del mixed
    wants = tuple(tuple(t.requires_grad for t in projection) for projection in projections)
    (want_q, want_k, want_v), wod, want_wo = map(any, wants), wo.data, wo.requires_grad
    kept_q, kept_kv = _kept(x_q), _kept(x_kv)

    def rule(g):
        xkv = _read(kept_kv)
        xq = xkv if kept_q is kept_kv else _read(kept_q)
        v = keys.split(project(xkv, 2), heads)
        dwo = queries.merge(p @ v).T @ g if want_wo else None
        gh = queries.split(g @ wod.T, heads)
        dp = gh @ v.swapaxes(2, 3)
        del v
        dv = keys.merge(p.swapaxes(2, 3) @ gh) if want_v else None
        del gh
        dp -= (dp * p).sum(axis=3, keepdims=True)
        dz = np.multiply(p, dp, dp)  # dz = p * (dp - (dp * p).sum(...)) * norm, in dp's buffer
        dz *= norm
        dys = [queries.merge(dz @ keys.split(project(xkv, 1), heads)) if want_q else None,
               keys.merge(dz.swapaxes(2, 3) @ queries.split(project(xq, 0), heads)) if want_k else None,
               dv]
        del dz, dv
        grads = ()
        for x, (w, *b), (wx, ww, *_) in zip((xq, xkv, xkv), weights, wants):
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


def tied_logits(h, w_text, table):
    """``h @ w_text.T @ table.T`` on arrays, each transpose a fresh contiguous
    copy, which fixes the products' bits: the ``w_text.T`` copy, the first
    product, the ``table.T`` copy and the logits, which decoding reads."""
    wt, tt = np.ascontiguousarray(w_text.T), np.ascontiguousarray(table.T)
    first = h @ wt
    return wt, first, tt, first @ tt


def token_loss(h, w_text, table, targets, weight, rows=None, cols=None, hidden=None):
    """``weight`` times the mean over rows of -log softmax(logits)[target] in
    one node, the logits ``tied_logits`` of rows ``rows`` of ``h`` over rows
    ``cols`` of ``table`` (all when None), -1e30 added to those the bool mask
    ``hidden`` marks (no target may be hidden). It has the floats of the
    seven nodes it fuses (a row gather, two transposed copies, two products,
    a cross-entropy, a scale) and keeps what they kept, each array only for
    a gradient that needs it."""
    hd, wd, td = h.data, w_text.data, table.data
    if not hd.ndim == wd.ndim == td.ndim == 2 or (hd.shape[1], td.shape[1]) != wd.shape[::-1]:
        raise ShapeError(f"token_loss: incompatible h {h.shape}, w_text {w_text.shape} and "
                         f"table {table.shape}")
    ridx = None if rows is None else _gather_ids(h, rows, "token_loss")
    cidx = None if cols is None else _gather_ids(table, cols, "token_loss")
    b, v = len(hd if ridx is None else ridx), len(td if cidx is None else cidx)
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != (b,) or (hidden is not None and np.shape(hidden) != (b, v)):
        raise ShapeError(f"token_loss: {b} rows of {v} but {idx.shape} targets and "
                         f"a hidden mask of {np.shape(hidden)}")
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise IndexError(f"token_loss: target outside [0, {v})")
    if hidden is not None and hidden[np.arange(b), idx].any():
        raise ContractError("token_loss: a target is hidden")
    x = hd if ridx is None else hd[ridx]
    wt, first, tt, z = tied_logits(x, wd, td if cidx is None else td[cidx])
    if hidden is not None:
        z += np.where(hidden, _NEG_INF, 0.0)
    z -= z.max(axis=1, keepdims=True)
    mean = (np.log(np.exp(z).sum(axis=1)) - z[np.arange(b), idx]).mean()
    if not np.isfinite(mean):
        raise NumericError("non-finite values produced by token_loss")
    weight, hshape, tshape = float(weight), h.shape, table.shape
    kept = None if not w_text.requires_grad else _kept(h) if ridx is None else x
    wt, tt = (wt if h.requires_grad else None), (tt if h.requires_grad or kept is not None else None)
    first = first if table.requires_grad else None

    def rule(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), idx] -= 1.0
        p *= float(np.asarray(g).reshape(())) * weight / b
        dfirst, dtable = None if tt is None else p @ tt.T, None if first is None else (first.T @ p).T
        dx = None if wt is None else dfirst @ wt.T
        return (dx if ridx is None or dx is None else _row_sums(dx, ridx, hshape),
                None if kept is None else (_read(kept).T @ dfirst).T,
                dtable if cidx is None or dtable is None else _row_sums(dtable, cidx, tshape))

    return _make(mean * weight, "token_loss", (h, w_text, table), rule)


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
    sum over it never depends on the view a rule returned (``token_loss``'s
    weights get transposed ones), and may be the very array another leaf is
    given (``add`` hands both parents one): a caller never writes into it.
    The pass consumes the graph, so backward through a vertex an earlier
    call consumed is a ContractError."""
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
