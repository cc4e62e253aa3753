import ast
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import sentigen.autodiff as ad
from sentigen.errors import ContractError, ShapeError

from conftest import finite_diff_check, gelu_ref, layer_norm_ref, pair_contrast_ref, sum_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import graph_bytes  # noqa: E402
import op_times  # noqa: E402

# negatives, signed zeros, infinities, NaNs (one with a payload and a sign),
# subnormals and values near the largest float
SPECIALS = np.array([-3.5, -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e308,
                     np.frombuffer(bytes.fromhex("230100000000f8ff"), dtype=np.float64)[0]])


def leaf(arr, rng=None):
    t = ad.constant(np.asarray(arr, dtype=np.float64))
    t.requires_grad = True
    return t


def rand_leaf(rng, *shape):
    return leaf(rng.normal(0.0, 1.0, size=shape))


# ---------------------------------------------------------------------------
# frozen scalar oracles


def test_cross_entropy_hand_value():
    # softmax([1,2,3]) -> -log p[2] computed by hand beforehand
    logits = leaf([[1.0, 2.0, 3.0]])
    loss = ad.softmax_cross_entropy(logits, [2])
    assert abs(loss.item() - 0.4076059644443806) < 1e-12


def test_cross_entropy_uniform_is_log_k():
    logits = leaf(np.zeros((1, 7)))
    loss = ad.softmax_cross_entropy(logits, [3])
    assert abs(loss.item() - math.log(7)) < 1e-12


def test_matmul_shape_and_grads():
    rng = np.random.default_rng(0)
    a = rand_leaf(rng, 3, 4)
    b = rand_leaf(rng, 4, 2)
    out = ad.matmul(a, b)
    assert out.data.shape == (3, 2)
    loss_fn = lambda t: sum_of(ad.matmul(a, b), ad.matmul(a, b))
    assert finite_diff_check(loss_fn, a) < 1e-6
    assert finite_diff_check(loss_fn, b) < 1e-6


# ---------------------------------------------------------------------------
# per-op finite differences


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_ops_match_fd(seed):
    rng = np.random.default_rng(seed)
    a = rand_leaf(rng, 4, 3)
    b = rand_leaf(rng, 4, 3)
    row = rand_leaf(rng, 3)
    w = rand_leaf(rng, 3, 3)
    cases = {
        "add": lambda: sum_of(ad.gelu(ad.add(a, b))),
        "linear": lambda: sum_of(ad.linear(a, w, row), ad.linear(a, w, row)),
        "scale": lambda: sum_of(ad.scale(a, -2.5)),
        "gelu": lambda: sum_of(ad.gelu(a)),
    }
    for name, fn in cases.items():
        for t in (a, b, row, w):
            assert finite_diff_check(lambda _: fn(), t) < 1e-6, name


@pytest.mark.parametrize("seed", range(5))
def test_structural_ops_match_fd(seed):
    rng = np.random.default_rng(100 + seed)
    a = rand_leaf(rng, 5, 4)
    b = rand_leaf(rng, 2, 4)

    def fn():
        cat = ad.concat_rows([a, b])
        sl = ad.embedding(cat, range(1, 6))
        cols = ad.transpose(ad.embedding(ad.transpose(sl), range(1, 3)))  # columns 1:3
        tr = ad.transpose(ad.reshape(cols, (2, 5)))
        return sum_of(tr, tr)

    assert finite_diff_check(lambda _: fn(), a) < 1e-6
    assert finite_diff_check(lambda _: fn(), b) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_reduction_norm_softmax_match_fd(seed):
    rng = np.random.default_rng(200 + seed)
    a = rand_leaf(rng, 4, 6)
    gain = rand_leaf(rng, 6)
    bias = rand_leaf(rng, 6)

    cases = {
        "layer_norm": lambda: sum_of(ad.layer_norm(a, gain, bias), ad.layer_norm(a, gain, bias)),
        "segment_mean": lambda: sum_of(ad.segment_mean(a, [0, 3, 4]),
                                       ad.segment_mean(a, [0, 3, 4])),
        "ce": lambda: ad.softmax_cross_entropy(a, [1, 0, 5, 3]),
    }
    for name, fn in cases.items():
        for t in (a, gain, bias):
            assert finite_diff_check(lambda _: fn(), t) < 1e-6, name


def test_cross_entropy_hides_marked_logits():
    """Hidden logits take no part: each row's loss is that of its visible
    columns alone within 1e-12, hidden columns get exactly zero gradient, the
    gradient passes finite differences, and a hidden target or a mask of
    another shape is an error."""
    rng = np.random.default_rng(43)
    a = rand_leaf(rng, 4, 6)
    hidden = np.zeros((4, 6), dtype=bool)
    hidden[[0, 0, 1, 3], [1, 4, 0, 5]] = True
    targets = [2, 3, 5, 0]
    loss = ad.softmax_cross_entropy(a, targets, hidden=hidden)
    rows = [ad.softmax_cross_entropy(ad.constant(a.data[i:i + 1, ~hidden[i]]),
                                     [int((~hidden[i])[:t].sum())]).item()
            for i, t in enumerate(targets)]
    assert abs(loss.item() - np.mean(rows)) <= 1e-12
    grad = ad.backward(loss)[a]
    assert np.all(grad[hidden] == 0.0) and np.all(grad[~hidden] != 0.0)
    fn = lambda _: ad.softmax_cross_entropy(a, targets, hidden=hidden)
    assert finite_diff_check(fn, a) < 1e-6
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy(a, [1, 3, 5, 0], hidden=hidden)
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(a, targets, hidden=hidden[:, :5])


def test_embedding_rows_and_fd():
    rng = np.random.default_rng(3)
    table = rand_leaf(rng, 6, 4)
    ids = [1, 3, 3, 0]
    out = ad.embedding(table, ids)
    assert out.data.shape == (4, 4)
    loss_fn = lambda _: sum_of(ad.embedding(table, ids), ad.embedding(table, ids))
    assert finite_diff_check(loss_fn, table) < 1e-6
    grad = ad.backward(sum_of(ad.embedding(table, ids)))[table]
    # repeated index accumulates, untouched rows stay exactly zero
    assert np.all(grad[3] == 2.0)
    assert np.all(grad[1] == 1.0)
    assert np.all(grad[2] == 0.0) and np.all(grad[5] == 0.0)


def attention_reference(q, k, v, heads, causal=False):
    """One sample, per-head loop over column blocks: the fused op's forward
    oracle. Causal hides key j from query i when j - i > lk - lq."""
    hd = q.shape[1] // heads
    lq, lk = q.shape[0], k.shape[0]
    ahead = np.arange(lk)[None, :] - np.arange(lq)[:, None] > lk - lq
    bias = np.where(ahead, -np.inf, 0.0) if causal else 0.0
    out = []
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        z = q[:, cols] @ k[:, cols].T / math.sqrt(hd) + bias
        p = np.exp(z - z.max(axis=1, keepdims=True))
        out.append((p / p.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(out, axis=1)


def packed_rows(rng, lengths, d):
    return rand_leaf(rng, sum(lengths), d), np.cumsum([0] + list(lengths))


# (query lengths, key lengths) per sample: uneven, equal, length-1 samples,
# fewer queries than keys, and one query per sample
ATTENTION_CASES = (([1, 3, 2], [1, 4, 3]), ([2, 1], [3, 3]), ([3, 3, 3], [5, 5, 5]),
                   ([1, 1, 1], [2, 4, 3]), ([2, 1, 1, 2], [2, 1, 5, 4]), ([2, 2], [2, 2]))


def check_attention(rng, heads, d, q_len, k_len, causal):
    """Every sample's outputs equal the reference on that sample alone
    within 1e-12, and gradients pass finite differences."""
    q, q_off = packed_rows(rng, q_len, d)
    k, k_off = packed_rows(rng, k_len, d)
    v = rand_leaf(rng, sum(k_len), d)
    out = ad.attention(q, k, v, heads, q_off, k_off, causal)
    assert out.shape == (sum(q_len), d)
    for i in range(len(q_len)):
        qs, ks = slice(q_off[i], q_off[i + 1]), slice(k_off[i], k_off[i + 1])
        want = attention_reference(q.data[qs], k.data[ks], v.data[ks], heads, causal)
        assert np.max(np.abs(out.data[qs] - want)) <= 1e-12
    w = ad.constant(rng.normal(size=out.shape))
    fn = lambda _: sum_of(ad.attention(q, k, v, heads, q_off, k_off, causal), w)
    for t in (q, k, v):
        assert finite_diff_check(fn, t) < 1e-6


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_reference_and_fd(heads):
    rng = np.random.default_rng(400 + heads)
    for causal in (False, True):
        for q_len, k_len in ATTENTION_CASES:
            check_attention(rng, heads, 8, q_len, k_len, causal)
    # more queries than keys is fine without the causal flag
    check_attention(rng, heads, 8, [4, 1, 1, 2], [2, 1, 5, 1], False)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("heads", [1, 2])
def test_varlen_attention_matches_reference_and_fd(heads, causal):
    """Random uneven lengths at width 4: per-sample reference, finite
    differences, and keys past a sample's end take no part in it."""
    rng = np.random.default_rng(500 + heads + 10 * causal)
    for _ in range(3):
        b = int(rng.integers(1, 5))
        k_len = [int(n) for n in rng.integers(1, 6, size=b)]
        q_len = [int(rng.integers(1, n + 1)) for n in k_len]
        check_attention(rng, heads, 4, q_len, k_len, causal)


def test_attention_samples_are_isolated():
    """Perturbing one sample's keys and values leaves every other sample's
    output bit-identical; its own keys and values get gradient only from
    its own queries."""
    rng = np.random.default_rng(9)
    q_len, k_len, d = [2, 1, 3], [4, 2, 3], 8
    q = ad.constant(rng.normal(size=(sum(q_len), d)))
    k, k_off = packed_rows(rng, k_len, d)
    v = rand_leaf(rng, sum(k_len), d)
    q_off = np.cumsum([0] + q_len)
    for causal in (False, True):
        base = ad.attention(q, ad.constant(k.data), ad.constant(v.data), 2, q_off, k_off, causal).data
        k2, v2 = k.data.copy(), v.data.copy()
        k2[k_off[2]:] += rng.normal(size=(k_len[2], d))
        v2[k_off[2]:] *= 7.0
        moved = ad.attention(q, ad.constant(k2), ad.constant(v2), 2, q_off, k_off, causal).data
        assert np.array_equal(moved[:q_off[2]], base[:q_off[2]])
        assert not np.allclose(moved[q_off[2]:], base[q_off[2]:])
        w = np.zeros((sum(q_len), d))
        w[q_off[1]:q_off[2]] = 1.0  # only sample 1's outputs count
        grads = ad.backward(sum_of(ad.attention(q, k, v, 2, q_off, k_off, causal), ad.constant(w)))
        outside = np.r_[0:k_off[1], k_off[2]:k_off[3]]
        assert np.all(grads[k][outside] == 0.0) and np.all(grads[v][outside] == 0.0)


def test_causal_attention_is_bottom_right_aligned():
    """Feeding each sample's queries one at a time, each against the keys up
    to its own position (one query per sample, no mask), gives the rows of
    one causal call over the whole stream within 1e-12: what cached
    decoding relies on."""
    rng = np.random.default_rng(23)
    b, n, d = 3, 4, 8
    q, k, v = (rng.normal(size=(b * n, d)) for _ in range(3))
    steps = np.arange(b + 1) * n
    full = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), 2, steps, steps, True).data
    for t in range(n):
        rows = np.arange(b) * n + t
        prefix = (np.arange(b)[:, None] * n + np.arange(t + 1)).reshape(-1)
        one = ad.attention(ad.constant(q[rows]), ad.constant(k[prefix]), ad.constant(v[prefix]), 2,
                           np.arange(b + 1), np.arange(b + 1) * (t + 1), True).data
        assert np.max(np.abs(one - full[rows])) <= 1e-12


def test_attention_rejects_bad_offsets():
    rng = np.random.default_rng(29)
    q, q_off = packed_rows(rng, [2, 3], 4)
    k, k_off = packed_rows(rng, [3, 3], 4)
    v = rand_leaf(rng, 6, 4)
    bad = {"heads": (q, k, v, 3, q_off, k_off), "short": (q, k, v, 2, q_off, k_off[:-1]),
           "reversed": (q, k, v, 2, q_off[::-1], k_off), "descending": (q, k, v, 2, [0, 4, 2, 5], k_off),
           "count": (q, k, v, 2, q_off, [0, 2, 4, 6]), "rows": (q, k, v, 2, [0, 2, 4], k_off),
           "causal": (q, k, v, 2, [0, 4, 5], k_off, True)}
    for name, args in bad.items():
        with pytest.raises(ShapeError):
            ad.attention(*args)
            pytest.fail(name)


def test_attention_over_a_layout_records_no_node_and_takes_no_gradient():
    """Keys and values in a ``head_layout`` are arrays, so attention over
    one gives the packed call's output, records no node, and refuses a
    ``q`` that needs a gradient rather than give it one through the layout
    alone."""
    rng = np.random.default_rng(31)
    q, q_off = packed_rows(rng, [2, 3], 4)
    k, k_off = packed_rows(rng, [3, 1], 4)
    v = rand_leaf(rng, 4, 4)
    layout = ad.head_layout(k.data, v.data, 2, k_off)
    frozen = ad.constant(q.data)
    out = ad.attention(frozen, None, None, 2, q_off, None, layout=layout)
    want = ad.attention(frozen, ad.constant(k.data), ad.constant(v.data), 2, q_off, k_off)
    assert out.node is None and not out.requires_grad
    assert np.array_equal(out.data, want.data)
    with pytest.raises(ContractError, match="layout"):
        ad.attention(q, None, None, 2, q_off, None, layout=layout)


def test_segment_mean_matches_per_segment_and_fd():
    """Packed segments of uneven length, a length-1 one among them: each
    mean is its segment's alone, bit for bit, and the gradient passes finite
    differences."""
    rng = np.random.default_rng(13)
    a, offsets = packed_rows(rng, [3, 1, 5, 2], 4)
    out = ad.segment_mean(a, offsets)
    assert out.shape == (4, 4)
    for i in range(4):
        rows = a.data[offsets[i]:offsets[i + 1]]
        assert np.array_equal(out.data[i], ad.segment_mean(ad.constant(rows), [0, len(rows)]).data[0])
        assert np.max(np.abs(out.data[i] - rows.mean(axis=0))) <= 1e-15
    w = ad.constant(rng.normal(size=(4, 4)))
    assert finite_diff_check(lambda _: sum_of(ad.segment_mean(a, offsets), w), a) < 1e-6
    with pytest.raises(ContractError):
        ad.segment_mean(a, [0, 3, 3, 11])  # an empty segment
    with pytest.raises(ShapeError):
        ad.segment_mean(a, offsets[:-1])
    with pytest.raises(ShapeError):
        ad.segment_mean(ad.reshape(a, (44,)), [0, 44])


def test_masked_mean_rows_per_sample():
    """A (B * L)-row layout with a keep mask, packed to each sample's kept
    rows: every sample's mean is its own alone, the gradient reaches exactly
    the kept rows, an all-masked sample is an error, and offsets bounding
    fewer rows than packed are a ShapeError."""
    rng = np.random.default_rng(12)
    a = rand_leaf(rng, 3 * 4, 5)
    keep = np.array([[1, 1, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
    kept = np.flatnonzero(keep.ravel())

    def pooled(x):
        packed = ad.embedding(x, kept)
        return ad.segment_mean(packed, np.cumsum([0] + keep.sum(axis=1).tolist()))

    out = pooled(a)
    assert out.shape == (3, 5)
    for b in range(3):
        rows = a.data[4 * b:4 * b + 4][keep[b]]
        one = ad.segment_mean(ad.constant(rows), [0, len(rows)])
        assert np.array_equal(out.data[b], one.data[0])
    w = ad.constant(rng.normal(size=(3, 5)))
    assert finite_diff_check(lambda _: sum_of(pooled(a), w), a) < 1e-6
    grad = ad.backward(sum_of(pooled(a), w))[a]
    assert np.all(grad[~keep.ravel()] == 0.0) and np.all(grad[kept] != 0.0)
    with pytest.raises(ContractError):
        ad.segment_mean(ad.embedding(a, range(5)), [0, 4, 4, 5])  # sample 1 keeps no row
    with pytest.raises(ShapeError):
        ad.segment_mean(ad.embedding(a, range(len(kept))), [0, 3, 4])


def test_embedding_backward_matches_scatter_add():
    """The sorted segmented-sum backward equals an unbuffered scatter-add
    within 1e-12: repeated ids, no ids, and ids covering the whole table."""
    rng = np.random.default_rng(17)
    table = rand_leaf(rng, 30, 6)
    cases = [rng.integers(0, 30, size=200), np.array([], dtype=np.int64), rng.permutation(30),
             np.repeat(rng.permutation(30), 7), np.array([4, 4, 4, 4])]
    for ids in cases:
        g = rng.normal(size=(len(ids), 6))
        want = np.zeros((30, 6))
        np.add.at(want, ids, g)
        (got,) = ad.embedding(table, ids).node.rule(g)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
        assert np.all(got[np.setdiff1d(np.arange(30), ids)] == 0.0)


def old_chain(pairs):
    """The encoder's input rows as they were built before ``embedding`` took
    extra pairs: one gather per table and an ``add`` node per extra pair."""
    (table, ids), *rest = pairs
    x = ad.embedding(table, ids)
    for t, i in rest:
        x = ad.add(x, ad.embedding(t, i))
    return x


def input_pairs(rng, n=40):
    """Four tables of width 5 and their ids, repeats included."""
    return [(rand_leaf(rng, rows, 5), rng.integers(0, rows, size=n)) for rows in (9, 3, 12, 4)]


@pytest.mark.parametrize("seed", range(3))
def test_summed_embedding_equals_the_add_chain_bitwise(seed):
    """One ``embedding`` node over four (table, ids) pairs gives the floats
    of a gather per table plus three ``add`` nodes, the output and every
    table's gradient bit for bit."""
    rng = np.random.default_rng(700 + seed)
    pairs = input_pairs(rng)
    up = ad.constant(rng.normal(size=(40, 5)))
    tables = [t for t, _ in pairs]

    def grads(out):
        grads = ad.backward(sum_of(out, up))
        return [grads[t] for t in tables]

    fused, chain = ad.embedding(*pairs[0], *pairs[1:]), old_chain(pairs)
    assert fused.op == "embedding" and fused.parents == tuple(tables)
    assert np.array_equal(fused.data, chain.data)
    for got, want in zip(grads(fused), grads(chain)):
        assert np.array_equal(got, want)


def test_summed_embedding_matches_fd_and_checks_its_pairs():
    rng = np.random.default_rng(31)
    pairs = input_pairs(rng, n=7)
    w = ad.constant(rng.normal(size=(7, 5)))
    fn = lambda _: sum_of(ad.gelu(ad.embedding(*pairs[0], *pairs[1:])), w)
    for table, _ in pairs:
        assert finite_diff_check(fn, table) < 1e-6
    for k in range(4):
        for bad in (-1, pairs[k][0].shape[0]):
            ids = pairs[k][1].copy()
            ids[3] = bad
            broken = pairs[:k] + [(pairs[k][0], ids)] + pairs[k + 1:]
            with pytest.raises(IndexError):
                ad.embedding(*broken[0], *broken[1:])
    with pytest.raises(ShapeError):  # a pair of another width
        ad.embedding(*pairs[0], (rand_leaf(rng, 3, 4), [0] * 7))
    with pytest.raises(ShapeError):  # a pair of another row count
        ad.embedding(*pairs[0], (pairs[1][0], [0] * 6))


def attention_keeping_copies(q, k, v, heads, q_off, k_off, g, causal):
    """``attention``'s forward and backward as they were when the node kept
    its padded copies of q, k and v for the rule: returns the output and the
    q, k and v gradients for upstream gradient ``g``."""
    qoff, qlen, qmin, lq = ad._segments(q_off, q.shape[0], "attention")
    koff, klen, kmin, lk = ad._segments(k_off, k.shape[0], "attention")
    qslot, kslot = ad._padded_slots(qoff, qlen, qmin, lq), ad._padded_slots(koff, klen, kmin, lk)
    b, hd = len(qlen), q.shape[1] // heads
    qh, kh, vh = (ad._split(x, slot, b, rows, heads)
                  for x, slot, rows in ((q, qslot, lq), (k, kslot, lk), (v, kslot, lk)))
    hidden = None if kmin == lk else (np.arange(lk) >= klen[:, None])[:, None]
    if causal and lq > 1:
        ahead = np.arange(lk) > np.arange(lq)[:, None] + (klen - qlen)[:, None, None]
        hidden = ahead if hidden is None else ahead | hidden
    norm = 1.0 / float(np.sqrt(hd))
    z = qh @ kh.swapaxes(2, 3)
    z *= norm
    if hidden is not None:
        z += np.where(hidden, ad._NEG_INF, 0.0)[:, None]
    z -= z.max(axis=3, keepdims=True)
    p = np.exp(z, out=z)
    p /= p.sum(axis=3, keepdims=True)
    out = ad._merge(p @ vh, qslot)
    gh = ad._split(g, qslot, b, lq, heads)
    dp = gh @ vh.swapaxes(2, 3)
    dz = p * (dp - (dp * p).sum(axis=3, keepdims=True)) * norm
    return (out, ad._merge(dz @ kh, qslot), ad._merge(dz.swapaxes(2, 3) @ qh, kslot),
            ad._merge(p.swapaxes(2, 3) @ gh, kslot))


@pytest.mark.parametrize("causal", [False, True])
def test_attention_rule_equals_the_copy_keeping_rule_bitwise(causal):
    """Uneven query and key sides, so both are scattered into padded
    buffers: the output and the q, k and v gradients equal, bit for bit,
    those of the rule that kept its padded copies, and the node's rule holds
    no array of the padded layout but ``p``."""
    rng = np.random.default_rng(800 + causal)
    for q_len, k_len, heads in (([1, 3, 2], [1, 4, 3], 2), ([2, 1, 1, 2], [2, 1, 5, 4], 1),
                                ([3, 1], [3, 3], 4), ([2, 2], [4, 1], 2)):
        if causal and any(a > b for a, b in zip(q_len, k_len)):
            continue
        q, q_off = packed_rows(rng, q_len, 8)
        k, k_off = packed_rows(rng, k_len, 8)
        v = rand_leaf(rng, sum(k_len), 8)
        g = rng.normal(size=q.shape)
        out = ad.attention(q, k, v, heads, q_off, k_off, causal)
        want = attention_keeping_copies(q.data, k.data, v.data, heads, q_off, k_off, g, causal)
        for got, ref in zip((out.data,) + out.node.rule(g), want):
            assert np.array_equal(got, ref)
        held = [c.cell_contents for c in out.node.rule.__closure__]
        padded = [a for a in held if isinstance(a, np.ndarray) and a.ndim == 4]
        assert len(padded) == 1 and padded[0].shape == (len(q_len), heads, max(q_len), max(k_len))


def test_matmul_gives_a_constant_parent_no_gradient():
    rng = np.random.default_rng(19)
    c, x = ad.constant(rng.normal(size=(3, 4))), rand_leaf(rng, 4, 2)
    g = rng.normal(size=(3, 2))
    assert ad.matmul(c, x).node.rule(g)[0] is None
    assert np.allclose(ad.matmul(c, x).node.rule(g)[1], c.data.T @ g)
    assert ad.matmul(ad.transpose(x), ad.constant(rng.normal(size=(4, 3)))).node.rule(g.T)[1] is None


def fused_cases(rng):
    """Random shapes for the fused ops: x (n, k), w (k, m), a bias row (m,),
    and two (n, m) inputs for the residual ``layer_norm``."""
    n, k, m = (int(v) for v in rng.integers(1, 7, size=3))
    return (rand_leaf(rng, n, k), rand_leaf(rng, k, m), rand_leaf(rng, m),
            rand_leaf(rng, n, m), rand_leaf(rng, n, m), rand_leaf(rng, m))


@pytest.mark.parametrize("seed", range(5))
def test_fused_ops_match_fd(seed):
    x, w, b, a, r, gain = fused_cases(np.random.default_rng(500 + seed))
    cases = {
        "linear": (lambda: sum_of(ad.gelu(ad.linear(x, w, b))), (x, w, b)),
        "residual layer_norm": (lambda: sum_of(ad.layer_norm(a, gain, b, residual=r),
                                               ad.layer_norm(a, gain, b, residual=r)),
                                (a, r, gain, b)),
    }
    for name, (fn, inputs) in cases.items():
        for t in inputs:
            assert finite_diff_check(lambda _: fn(), t) < 1e-4, name


@pytest.mark.parametrize("seed", range(5))
def test_fused_ops_equal_their_compositions_bitwise(seed):
    """Each fused node gives exactly the floats of the nodes it replaces, the
    output and every gradient bit for bit: ``linear`` those of a ``matmul``
    node and a bias-row add node (whose rules are spelled out here, as that
    add no longer exists), ``layer_norm`` those of an ``add`` node and a
    plain ``layer_norm``."""
    x, w, b, a, r, gain = fused_cases(np.random.default_rng(600 + seed))
    g = np.random.default_rng(seed).normal(size=a.shape)  # a non-uniform upstream gradient
    up = ad.constant(g)

    def grads(out, leaves):
        grads = ad.backward(sum_of(out, up))
        return [grads[t] for t in leaves]

    fused = ad.linear(x, w, b)
    assert np.array_equal(fused.data, x.data @ w.data + b.data)
    for got, want in zip(grads(fused, (x, w, b)), (g @ w.data.T, x.data.T @ g, g.sum(axis=0))):
        assert np.array_equal(got, want)

    fused, composed = ad.layer_norm(a, gain, b, residual=r), ad.layer_norm(ad.add(a, r), gain, b)
    assert np.array_equal(fused.data, composed.data)
    leaves = (a, r, gain, b)
    for got, want in zip(grads(fused, leaves), grads(composed, leaves)):
        assert np.array_equal(got, want)


def test_linear_gives_a_constant_input_no_gradient():
    rng = np.random.default_rng(23)
    c, w, b = ad.constant(rng.normal(size=(3, 4))), rand_leaf(rng, 4, 2), rand_leaf(rng, 2)
    g = rng.normal(size=(3, 2))
    dx, dw, db = ad.linear(c, w, b).node.rule(g)
    assert dx is None and np.array_equal(dw, c.data.T @ g) and np.array_equal(db, g.sum(axis=0))
    grads = ad.backward(sum_of(ad.linear(c, w, b)))
    assert c not in grads and w in grads
    with pytest.raises(ShapeError):
        ad.linear(c, w, rand_leaf(rng, 3))


def test_ops_over_constants_record_no_graph():
    a = ad.constant(np.ones((2, 2)))
    out = sum_of(ad.matmul(a, ad.transpose(a)))
    assert out.parents == () and out.node is None and not out.requires_grad
    x = leaf(np.ones((2, 2)))
    assert ad.matmul(a, x).parents == (a, x)


# ---------------------------------------------------------------------------
# composite & graph mechanics


@pytest.mark.parametrize("seed", range(3))
def test_composite_matches_fd(seed):
    rng = np.random.default_rng(300 + seed)
    x = rand_leaf(rng, 3, 8)
    w = rand_leaf(rng, 8, 5)
    gain = leaf(np.ones(5))
    bias = leaf(np.zeros(5))

    def fn():
        h = ad.layer_norm(ad.matmul(x, w), gain, bias)
        return ad.softmax_cross_entropy(h, [0, 3, 2])

    for t in (x, w, gain, bias):
        assert finite_diff_check(lambda _: fn(), t) < 1e-4


def test_shared_subexpression_grad():
    x = leaf([[2.0]])
    y = ad.matmul(x, x)       # x^2
    z = ad.add(y, y)          # 2 x^2 -> dz/dx = 4x = 8
    assert ad.backward(sum_of(z))[x][0, 0] == pytest.approx(8.0, abs=1e-12)


# each op on fresh parents, and the indices of the parents its rule reads
RETENTION_CASES = {
    "add": (lambda p: ad.add(*p), [(3, 4), (3, 4)], set()),
    "scale": (lambda p: ad.scale(p[0], 2.0), [(3, 4)], set()),
    "matmul": (lambda p: ad.matmul(*p), [(3, 4), (4, 2)], {0, 1}),
    "linear": (lambda p: ad.linear(*p), [(3, 4), (4, 2), (2,)], {0, 1}),
    "transpose": (lambda p: ad.transpose(p[0]), [(3, 4)], set()),
    "reshape": (lambda p: ad.reshape(p[0], (4, 3)), [(3, 4)], set()),
    "concat_rows": (lambda p: ad.concat_rows(p), [(3, 4), (2, 4)], set()),
    "embedding": (lambda p: ad.embedding(p[0], [0, 2, 2], (p[1], [1, 0, 1])), [(3, 4), (2, 4)], set()),
    "segment_mean": (lambda p: ad.segment_mean(p[0], [0, 1, 3]), [(3, 4)], set()),
    "pair_contrast": (lambda p: ad.pair_contrast(p[0], np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]],
                                                                dtype=bool)), [(3, 4)], {0}),
    "gelu": (lambda p: ad.gelu(p[0]), [(3, 4)], set()),
    "layer_norm": (lambda p: ad.layer_norm(*p), [(3, 4), (4,), (4,)], {1}),
    "residual layer_norm": (lambda p: ad.layer_norm(p[0], p[2], p[3], residual=p[1]),
                            [(3, 4), (3, 4), (4,), (4,)], {2}),
    "attention": (lambda p: ad.attention(*p, 2, [0, 1, 3], [0, 2, 3]), [(3, 4), (3, 4), (3, 4)],
                  {0, 1, 2}),
    "softmax_cross_entropy": (lambda p: ad.softmax_cross_entropy(p[0], [1, 0, 3]), [(3, 4)], set()),
    "dropout": (lambda p: ad.dropout(p[0], 0.5, np.random.default_rng(0)), [(3, 4)], set()),
}


def fresh_graph(rng, build, shapes):
    """``sum_of`` over ``build`` of fresh parents (each the output of an op
    over a leaf of positive values, so no leaf holds its array), with weak
    references to the parents' arrays. Only the returned loss keeps the
    graph alive."""
    parents = [ad.scale(leaf(rng.uniform(0.5, 1.5, size=shape)), 1.0) for shape in shapes]
    return sum_of(build(parents)), [weakref.ref(p.data) for p in parents]


@pytest.mark.parametrize("name", sorted(RETENTION_CASES))
def test_a_graph_keeps_exactly_the_parent_arrays_its_rules_read(name):
    """Once the caller drops its names, exactly the parents whose arrays the
    op's rule reads survive: ``linear`` x and w, ``matmul`` both operands,
    ``attention`` q, k and v, ``pair_contrast`` its input (its rule rebuilds
    the pair differences from it), ``layer_norm`` its gain, and no other op
    any (``gelu`` keeps its slope, not its input). Backward frees them all."""
    build, shapes, reads = RETENTION_CASES[name]
    loss, refs = fresh_graph(np.random.default_rng(61), build, shapes)
    alive = {i for i, ref in enumerate(refs) if ref() is not None}
    assert alive == set(reads), name
    ad.backward(loss)
    assert all(ref() is None for ref in refs), name


def test_backward_on_a_consumed_graph_is_a_contract_error():
    """Backward consumes the graph; a second call on the same loss is a
    ContractError that leaves every gradient the first call returned as it
    was. So is a call on a new loss over a consumed subgraph."""
    rng = np.random.default_rng(67)
    x, w, b = rand_leaf(rng, 3, 4), rand_leaf(rng, 4, 2), rand_leaf(rng, 2)
    h = ad.gelu(ad.linear(x, w, b))
    loss = sum_of(h, h)
    grads = ad.backward(loss)
    first = [grads[t].copy() for t in (x, w, b)]
    for again in (loss, sum_of(h)):
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(again)
        for t, g in zip((x, w, b), first):
            assert np.array_equal(grads[t], g)
    assert loss.node.rule is None and loss.node.inputs == () and loss.parents == ()


def test_backward_needs_scalar_and_graph_is_acyclic():
    x = leaf(np.ones((1, 2)))
    with pytest.raises(ContractError):
        ad.backward(ad.matmul(ad.transpose(x), x))
    y = ad.matmul(x, ad.transpose(x))
    loss = ad.add(y, ad.scale(y, 2.0))
    order = ad._topological_order(loss)
    assert order[-1] is loss.node
    assert len({id(t) for t in order}) == len(order) == 5  # x, transpose, y, scale, add
    seen = set()
    for node in order:
        for p in getattr(node, "inputs", ()):
            assert id(p) in seen
        seen.add(id(node))


def test_backward_returns_row_major_gradients():
    """Every returned gradient is C-contiguous, whatever view a rule handed
    its leaf: ``transpose``'s ``g.T`` among them, and ``concat_rows``'s row
    slices. Only the leaves that need a gradient and that the loss reaches
    are keys."""
    a, b, unused = leaf(np.ones((2, 3))), leaf(np.ones((2, 3))), leaf(np.ones(2))
    grads = ad.backward(sum_of(ad.add(a, b)))
    assert set(grads) == {a, b} and unused not in grads
    assert np.all(grads[a] == 1.0) and np.all(grads[b] == 1.0)
    c, d = leaf(np.ones((2, 2))), leaf(np.ones((3, 2)))
    grads.update(ad.backward(sum_of(ad.concat_rows([c, d]))))
    e = leaf(np.ones((2, 3)))
    grads.update(ad.backward(sum_of(ad.transpose(e), leaf(np.arange(6.0).reshape(3, 2)))))
    assert np.array_equal(grads[e], np.arange(6.0).reshape(3, 2).T)
    for t in (a, b, c, d, e):
        assert grads[t].flags.c_contiguous, t


def test_constant_parent_gets_no_grad():
    c = ad.constant(np.ones((2, 2)))
    x = leaf(np.full((2, 2), 3.0))
    grads = ad.backward(sum_of(ad.add(c, x), c))
    assert c not in grads
    assert np.all(grads[x] == 1.0)


def test_shape_mismatch_is_shape_error():
    a = leaf(np.ones((2, 3)))
    b = leaf(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, a)


def test_dropout_semantics():
    rng = np.random.default_rng(0)
    x = leaf(np.ones((4, 8)))
    out = ad.dropout(x, 0.0, rng)
    assert out is x  # rate 0 is the identity
    kept = ad.dropout(x, 0.5, rng)
    vals = np.unique(kept.data)
    assert set(vals.tolist()) <= {0.0, 2.0}  # inverted scaling by 1/(1-rate)
    assert np.array_equal(ad.backward(sum_of(kept))[x], np.where(kept.data > 0, 2.0, 0.0))


def test_dropout_bytes_equal_the_float_mask_and_keep_a_bool_mask():
    """Scaling by the bool keep mask and then by 1 / (1 - rate) gives the
    bytes of one multiply by the float mask, forward and backward, on
    negatives, signed zeros, infinities, NaNs (a payload and a sign kept)
    and subnormals; and the rule holds the bool mask, no float64 one."""
    rng = np.random.default_rng(41)
    x = np.concatenate([SPECIALS, rng.normal(size=54)]).reshape(8, 8)
    g = x[::-1].copy()
    for rate in (0.1, 0.5, 0.3):
        seed = int(rng.integers(1 << 30))
        keep = np.random.default_rng(seed).random(x.shape) >= rate
        mask = keep.astype(np.float64) * (1.0 / (1.0 - rate))
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 overflows, inf * 0 is NaN
            out = ad.dropout(leaf(x), rate, np.random.default_rng(seed))
            (dx,) = out.node.rule(g)
            assert out.data.tobytes() == (x * mask).tobytes()
            assert dx.tobytes() == (g * mask).tobytes()
        held = [c.cell_contents for c in out.node.rule.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert [a.dtype for a in arrays] == [np.bool_] and np.array_equal(arrays[0], keep)


def block_rows(cols):
    """Row counts around the row block of a ``cols``-wide float64 array:
    one row, a block less one, a block, a block and one, and several."""
    step = ad._BLOCK // cols
    return (1, step - 1, step, step + 1, 3 * step + 5)


def test_by_rows_runs_a_small_call_whole_and_a_large_one_in_row_blocks():
    """An input that fits one block reaches the kernel whole, as one block
    in one call, with outputs and scratch of its shape; an empty one never
    reaches it and gets empty outputs. A larger one reaches it as
    consecutive blocks of whole rows of at most ``_BLOCK`` elements, each
    with its outputs' rows and a scratch block."""
    calls = []

    def kernel(*arrays):
        calls.append(arrays)

    for rows in (3, ad._BLOCK // 64):
        x = np.zeros((rows, 64))
        (out,) = ad._by_rows(kernel, (x, None), (x.shape,))
        assert len(calls) == 1, rows
        xb, none, ob, scratch = calls.pop()
        assert np.shares_memory(xb, x) and np.shares_memory(ob, out) and none is None
        assert xb.shape == ob.shape == scratch.shape == out.shape == x.shape
    (out,) = ad._by_rows(kernel, (np.zeros((0, 64)), None), ((0, 64),))
    assert not calls and out.shape == (0, 64)
    x = np.arange(3 * ad._BLOCK + 5 * 64, dtype=np.float64).reshape(-1, 64)
    (out,) = ad._by_rows(kernel, (x, None), (x.shape,))
    assert [len(c[0]) for c in calls] == [ad._BLOCK // 64] * 3 + [5]
    for lo, (xb, none, ob, scratch) in zip(range(0, len(x), ad._BLOCK // 64), calls):
        assert np.shares_memory(xb, x) and xb[0, 0] == x[lo, 0] and none is None
        assert np.shares_memory(ob, out) and ob.shape == scratch.shape == xb.shape


@pytest.mark.parametrize("cols", [16, 128])
def test_gelu_bytes_equal_the_whole_array_expressions(cols):
    """At one row, around one row block and over several, ``gelu``'s output
    and rule give the bytes of the whole-array expressions (``gelu_ref``),
    with special values in the first and the last block of the input and,
    as in the dropout test, of the gradient (the input reversed). One case
    is only NaN for NaN: where a NaN gradient meets a NaN bracket in the
    rule's last product ``g * (...)``, which of the two NaNs survives is
    numpy's choice, and on arrays of 256 KB or more its temporary elision
    swaps the reference's operands."""
    rng = np.random.default_rng(43)
    for rows in block_rows(cols):
        x = 3.0 * rng.normal(size=rows * cols)
        x[:SPECIALS.size], x[-SPECIALS.size:] = SPECIALS, SPECIALS[::-1]
        x = x.reshape(rows, cols)
        g = x[::-1, ::-1].copy()
        with np.errstate(all="ignore"):  # 1e308 overflows, inf * 0 is NaN
            got, ref = ad.gelu(leaf(x)), gelu_ref(leaf(x))
            assert got.data.tobytes() == ref.data.tobytes(), rows
            (dx,), (want,), (bracket,) = got.node.rule(g), ref.node.rule(g), ref.node.rule(np.ones_like(g))
        meet = np.isnan(g) & np.isnan(bracket)
        assert meet.any() and np.isnan(dx[meet]).all(), rows
        assert dx[~meet].tobytes() == want[~meet].tobytes(), rows


@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("cols", [16, 64])
def test_layer_norm_bytes_equal_the_whole_array_expressions(cols, residual):
    """At one row, around one row block and over several, ``layer_norm``'s
    output and every gradient its rule gives, with and without a residual,
    have the bytes of the whole-array expressions (``layer_norm_ref``); one
    input row is constant, so its variance is zero."""
    rng = np.random.default_rng(47)
    for rows in block_rows(cols):
        a, r, g = (rng.normal(size=(rows, cols)) for _ in range(3))
        a[rows // 2] = 1.5
        gain, bias = rng.normal(size=cols), rng.normal(size=cols)
        results = []
        for op in (ad.layer_norm, layer_norm_ref):
            x, res, gn, bs = (leaf(v) for v in (a, r, gain, bias))
            out = op(x, gn, bs, residual=res if residual else None)
            results.append([v.tobytes() for v in (out.data,) + out.node.rule(g)])
        assert results[0] == results[1], rows


@pytest.mark.parametrize("labels, cols, twins", [
    ([0, 0, 1, 1, 2, 2], 3, ()),
    ([0, 0, 1, 2, 3, 0], 3, ()),
    ([0, 0, 1, 1, 2, 0, 1], 3, ((1, 0), (4, 2), (6, 2))),
    ([0, 1, 2, 3, 4, 5], 3, ()),
    (list(np.arange(64) % 40), 64, ((63, 0),)),
], ids=["labels0", "labels1", "twin-rows", "no-shared-label", "stage-one-size"])
def test_pair_contrast_bytes_equal_the_row_copying_reference(labels, cols, twins):
    """With every row active (each has a same-label partner) the op uses its
    incidence matrices as they are; with some rows inactive it copies out
    the active rows. Either way its value and gradient have the bytes of
    the reference, which always copies (``pair_contrast_ref``): with twin
    rows too, whose zero-distance pairs take no part, and at stage one's
    size (64 rows of width 64, 16 of them unpartnered). With no shared
    label the op is the constant 0, where the reference's gradient is 0."""
    x = np.random.default_rng(59).normal(size=(len(labels), cols))
    for row, twin in twins:
        x[row] = x[twin]
    same = np.equal.outer(labels, labels)
    got, ref = ad.pair_contrast(leaf(x), same), pair_contrast_ref(leaf(x), same)
    assert got.data.tobytes() == ref.data.tobytes()
    shared = len(set(labels)) < len(labels)
    assert (got.op == "pair_contrast") == shared and (got.node is None) != shared
    for g in (0.7, -1.3):
        (want,) = ref.node.rule(np.array(g))
        if shared:
            assert got.node.rule(np.array(g))[0].tobytes() == want.tobytes()
        else:
            assert not want.any()


def test_row_kernels_hold_whole_arrays_and_share_no_buffer():
    """Over several row blocks, ``gelu``'s rule holds exactly one array of
    its own, its slope: the bytes of the reference rule's bracket (its rule
    at g = 1). ``layer_norm``'s holds exactly xhat, inv and the gain. No
    rule holds block scratch, and two calls share no memory, so no buffer
    outlives the call that made it."""
    rng = np.random.default_rng(53)
    rows, cols = 3 * (ad._BLOCK // 16) + 5, 16
    x, gain, bias = leaf(rng.normal(size=(rows, cols))), rand_leaf(rng, cols), rand_leaf(rng, cols)
    made = []
    for _ in range(2):
        out = ad.gelu(x)
        (slope,) = graph_bytes.rule_arrays(out.node.rule)
        assert slope.shape == x.shape and slope.base is None
        (bracket,) = gelu_ref(x).node.rule(np.ones_like(x.data))
        assert slope.tobytes() == bracket.tobytes()
        made += [out.data, slope]
        out = ad.layer_norm(x, gain, bias)
        held = graph_bytes.rule_arrays(out.node.rule)
        assert sorted(a.shape for a in held) == [(cols,), (rows, 1), (rows, cols)]
        assert any(a is gain.data for a in held) and all(a.base is None for a in held)
        made += [out.data] + [a for a in held if a is not gain.data]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(made) for b in made[i + 1:])


def test_graph_bytes_peak_traces_a_round_and_puts_the_module_back(capsys):
    """``scripts/graph_bytes.py --smoke --peak`` prints the census and then
    one traced round's peak by op window, with every op and rule of the
    round credited, and leaves ``ad`` and ``tracemalloc`` as it found them."""
    before = dict(vars(ad))
    assert graph_bytes.main(["--smoke", "--peak"]) == 0
    assert vars(ad).keys() == before.keys() and all(vars(ad)[k] is v for k, v in before.items())
    assert not tracemalloc.is_tracing()
    printed = capsys.readouterr().out
    assert "bytes held at the first stage-one backward" in printed
    assert "peak traced memory over one pretrain-d64 round" in printed
    windows, _, tally = graph_bytes.round_peaks(0, smoke=True)
    assert tally.attempted and not tally.failed
    for op in ("linear", "attention", "gelu", "layer_norm", "pair_contrast"):
        assert windows.calls[op, "forward"] > 0 and windows.peak[op, "forward"] > 0, op
        assert windows.calls[op, "rule"] > 0 and windows.peak[op, "rule"] > 0, op
    assert windows.peak[windows.BETWEEN] > 0


def test_op_times_times_every_op_and_puts_the_module_back():
    """``scripts/op_times.py`` times a smoke unit of ``pretrain-d64`` with
    every public autodiff function and every recorded rule timed, checks
    the unit's outputs, and leaves the module as it found it."""
    before = dict(vars(ad))
    clock, wall, tally = op_times.time_units("pretrain-d64", 1, 0, smoke=True)
    assert tally.attempted and not tally.failed and wall > 0
    assert vars(ad).keys() == before.keys() and all(vars(ad)[k] is v for k, v in before.items())
    for op in ("linear", "attention", "gelu", "layer_norm", "dropout", "pair_contrast"):
        assert clock.calls[op, "forward"] > 0 and clock.seconds[op, "rule"] > 0, op
    assert clock.calls["backward", "forward"] == 4  # two steps in each of two stages


def test_autodiff_keeps_only_the_ops_the_package_calls():
    """Every public function of ``autodiff`` has an ``ad.<name>`` reference
    in another module of the package: an op that only tests call is not
    kept."""
    package = Path(ad.__file__).parent
    defined = {node.name for node in ast.parse(Path(ad.__file__).read_text()).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in package.glob("*.py"):
        if path.name != "autodiff.py":
            used |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ad"}
    assert defined and defined - used == set()


def test_the_package_imports_no_name_it_does_not_use():
    """Every name a module of the package imports is read in that module
    (or listed in its ``__all__``), unless its import line carries
    ``# noqa: F401``, and such a line imports only names the module does not
    read: the imports the benchmark's tracer patches by name. With no linter
    in the toolchain, this is what catches an import left behind."""
    package = Path(ad.__file__).parent
    unused, stale = [], []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        nodes = list(ast.walk(tree))
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                read |= set(ast.literal_eval(node.value))
        imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                exempt = "# noqa: F401" in lines[alias.lineno - 1]
                if exempt == (name in read):
                    (stale if exempt else unused).append(f"{path.name}:{alias.lineno} {name}")
    assert not unused, f"imported but never used: {unused}"
    assert not stale, f"marked noqa but used: {stale}"
