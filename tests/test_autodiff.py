import ast
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import sentigen.autodiff as ad
from sentigen.errors import ContractError, NumericError, ShapeError

from conftest import (attention_ref, finite_diff_check, gelu_ref, layer_norm_ref,
                      pair_contrast_ref, sum_of)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import graph_bytes  # noqa: E402
import op_times  # noqa: E402
import raise_reach  # noqa: E402

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
    w2, row2 = rand_leaf(rng, 3, 2), rand_leaf(rng, 2)
    cases = {
        "add": lambda: sum_of(gelu_ref(ad.add(a, b))),
        "linear": lambda: sum_of(ad.linear(a, w, row), ad.linear(a, w, row)),
        "scale": lambda: sum_of(ad.scale(a, -2.5)),
        "ffn": lambda: sum_of(ad.ffn(a, w, row, w2, row2), ad.ffn(a, w, row, w2, row2)),
    }
    for name, fn in cases.items():
        for t in (a, b, row, w, w2, row2):
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


def identity_projections(d):
    """Constant projections that take x_q (N, d) to itself as the queries,
    and x_kv (M, 2d) to its first d columns as the keys and its last d as
    the values, exactly, and the heads' outputs to themselves: ``attention``
    over given q, k and v."""
    eye, zero, bias = np.eye(d), np.zeros((d, d)), ad.constant(np.zeros(d))
    return ((ad.constant(eye), bias), ad.constant(np.vstack([eye, zero])),
            (ad.constant(np.vstack([zero, eye])), bias), (ad.constant(eye), bias))


def attention_over(q, kv, heads, q_off, k_off, causal=False):
    """``attention`` of queries ``q`` over keys and values side by side in
    ``kv``, through ``identity_projections``."""
    return ad.attention(q, kv, *identity_projections(q.shape[1]), heads, q_off, k_off, causal)


# (query lengths, key lengths) per sample: uneven, equal, length-1 samples,
# fewer queries than keys, and one query per sample
ATTENTION_CASES = (([1, 3, 2], [1, 4, 3]), ([2, 1], [3, 3]), ([3, 3, 3], [5, 5, 5]),
                   ([1, 1, 1], [2, 4, 3]), ([2, 1, 1, 2], [2, 1, 5, 4]), ([2, 2], [2, 2]))


def check_attention(rng, heads, d, q_len, k_len, causal):
    """Every sample's outputs equal the reference on that sample alone
    within 1e-12, and gradients pass finite differences."""
    q, q_off = packed_rows(rng, q_len, d)
    kv, k_off = packed_rows(rng, k_len, 2 * d)
    out = attention_over(q, kv, heads, q_off, k_off, causal)
    assert out.shape == (sum(q_len), d)
    for i in range(len(q_len)):
        qs, ks = slice(q_off[i], q_off[i + 1]), slice(k_off[i], k_off[i + 1])
        want = attention_reference(q.data[qs], kv.data[ks, :d], kv.data[ks, d:], heads, causal)
        assert np.max(np.abs(out.data[qs] - want)) <= 1e-12
    w = ad.constant(rng.normal(size=out.shape))
    fn = lambda _: sum_of(attention_over(q, kv, heads, q_off, k_off, causal), w)
    for t in (q, kv):
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
    kv, k_off = packed_rows(rng, k_len, 2 * d)
    q_off = np.cumsum([0] + q_len)
    for causal in (False, True):
        base = attention_over(q, ad.constant(kv.data), 2, q_off, k_off, causal).data
        kv2 = kv.data.copy()
        kv2[k_off[2]:, :d] += rng.normal(size=(k_len[2], d))
        kv2[k_off[2]:, d:] *= 7.0
        moved = attention_over(q, ad.constant(kv2), 2, q_off, k_off, causal).data
        assert np.array_equal(moved[:q_off[2]], base[:q_off[2]])
        assert not np.allclose(moved[q_off[2]:], base[q_off[2]:])
        w = np.zeros((sum(q_len), d))
        w[q_off[1]:q_off[2]] = 1.0  # only sample 1's outputs count
        grads = ad.backward(sum_of(attention_over(q, kv, 2, q_off, k_off, causal), ad.constant(w)))
        outside = np.r_[0:k_off[1], k_off[2]:k_off[3]]
        assert np.all(grads[kv][outside, :d] == 0.0) and np.all(grads[kv][outside, d:] == 0.0)


def test_causal_attention_is_bottom_right_aligned():
    """Feeding each sample's queries one at a time to ``attend``, each
    against the keys up to its own position (one query per sample, no
    mask), gives the rows of one causal ``attention`` call over the whole
    stream within 1e-12: what cached decoding relies on."""
    rng = np.random.default_rng(23)
    b, n, d = 3, 4, 8
    q, k, v = (rng.normal(size=(b * n, d)) for _ in range(3))
    steps = np.arange(b + 1) * n
    kv = ad.constant(np.hstack([k, v]))
    full = attention_over(ad.constant(q), kv, 2, steps, steps, True).data
    for t in range(n):
        rows = np.arange(b) * n + t
        prefix = (np.arange(b)[:, None] * n + np.arange(t + 1)).reshape(-1)
        layout = ad.head_layout(k[prefix], v[prefix], 2, np.arange(b + 1) * (t + 1))
        one = ad.attend(ad.constant(q[rows]), layout, np.arange(b + 1), True).data
        assert np.max(np.abs(one - full[rows])) <= 1e-12


def test_attention_rejects_bad_offsets():
    rng = np.random.default_rng(29)
    q, q_off = packed_rows(rng, [2, 3], 4)
    kv, k_off = packed_rows(rng, [3, 3], 8)
    bad = {"heads": (3, q_off, k_off), "short": (2, q_off, k_off[:-1]),
           "reversed": (2, q_off[::-1], k_off), "descending": (2, [0, 4, 2, 5], k_off),
           "count": (2, q_off, [0, 2, 4, 6]), "rows": (2, [0, 2, 4], k_off),
           "causal": (2, [0, 4, 5], k_off, True)}
    for name, args in bad.items():
        with pytest.raises(ShapeError):
            attention_over(q, kv, *args)
            pytest.fail(name)


def test_attention_over_a_layout_records_no_node_and_takes_no_gradient():
    """Keys and values in a ``head_layout`` are arrays, so ``attend`` over
    one gives the node's output, records no node, and refuses a ``q`` that
    needs a gradient rather than give it one through the layout alone. It
    takes the head count from the layout, so a query wider or narrower
    than the layout's heads is a ShapeError."""
    rng = np.random.default_rng(31)
    q, q_off = packed_rows(rng, [2, 3], 4)
    kv, k_off = packed_rows(rng, [3, 1], 8)
    layout = ad.head_layout(kv.data[:, :4], kv.data[:, 4:], 2, k_off)
    frozen = ad.constant(q.data)
    out = ad.attend(frozen, layout, q_off)
    want = attention_over(frozen, ad.constant(kv.data), 2, q_off, k_off)
    assert out.node is None and not out.requires_grad
    assert np.array_equal(out.data, want.data)
    with pytest.raises(ContractError, match="layout"):
        ad.attend(q, layout, q_off)
    for width in (2, 6, 8):
        with pytest.raises(ShapeError, match="layout"):
            ad.attend(ad.constant(np.ones((5, width))), layout, q_off)


def projection_leaves(rng, rows, d_in, width):
    """x (rows, d_in) and its projections to ``width`` as ``attention``
    takes them: the (w, b) pair of the queries, the keys' weight and the
    values' pair, and the output's pair, back to ``d_in``."""
    x = rand_leaf(rng, rows, d_in)
    q, wk = (rand_leaf(rng, d_in, width), rand_leaf(rng, width)), rand_leaf(rng, d_in, width)
    v, o = (rand_leaf(rng, d_in, width), rand_leaf(rng, width)), (rand_leaf(rng, width, d_in),
                                                                  rand_leaf(rng, d_in))
    return x, (q, wk, v, o)


def flat(projections):
    """The seven projection arrays, in ``attention``'s parent order."""
    (wq, bq), wk, (wv, bv), (wo, bo) = projections
    return [wq, bq, wk, wv, bv, wo, bo]


# (query sample lengths, heads, causal): equal lengths, ragged lengths with a
# one-row sample, and both causal
SELF_ATTENTION_CASES = (([3, 3], 2, False), ([1, 4, 2], 2, False), ([3, 3], 2, True),
                        ([2, 5, 1], 4, True))


def key_lengths(lengths):
    """Cross-attention key counts for query counts ``lengths``: more keys
    than queries, raggedly so, as a causal call needs."""
    return [n + 1 + i % 2 for i, n in enumerate(lengths)]


def check_node_bytes(rng, q_len, k_len, heads, causal):
    """The ``attention`` node's output and every leaf's gradient equal, bit
    for bit, those of ``attention_ref``'s projection nodes, attention node
    and output projection, with ``x_q`` also the input of a residual ``layer_norm``, as in a
    layer. With ``k_len`` None the node is self-attention, ``x_q`` its
    ``x_kv``: x's gradient sums the norm's, then q's, k's and v's, in that
    order, and only that order gives these bytes. Else ``x_kv`` is a leaf
    of its own, whose gradient sums k's, then v's."""
    q_off = np.cumsum([0] + q_len)
    x, projections = projection_leaves(rng, int(q_off[-1]), 8, 8)
    x_kv, k_off = (x, q_off) if k_len is None else packed_rows(rng, k_len, 8)
    gain, bias = rand_leaf(rng, 8), rand_leaf(rng, 8)
    up = ad.constant(rng.normal(size=(int(q_off[-1]), 8)))
    fused = ad.attention(x, x_kv, *projections, heads, q_off, k_off, causal)
    unfused = attention_ref(x, x_kv, *projections, heads, q_off, k_off, causal)
    assert fused.op == "attention" and np.array_equal(fused.data, unfused.data)
    leaves = [x, x_kv, gain, bias] + flat(projections)
    got, want = (ad.backward(sum_of(ad.layer_norm(x, gain, bias, residual=a), up))
                 for a in (fused, unfused))
    assert set(got) == set(want) == set(leaves)
    for t in leaves:
        assert np.array_equal(got[t], want[t])


@pytest.mark.parametrize("lengths, heads, causal", SELF_ATTENTION_CASES)
def test_self_attention_bytes_equal_three_linears_and_attention(lengths, heads, causal):
    """``attention`` of rows over themselves: see ``check_node_bytes``."""
    rng = np.random.default_rng(900 + len(lengths) + 10 * heads + causal)
    check_node_bytes(rng, lengths, None, heads, causal)


@pytest.mark.parametrize("lengths, heads, causal", SELF_ATTENTION_CASES)
def test_cross_attention_bytes_equal_three_linears_and_attention(lengths, heads, causal):
    """``attention`` of rows over other, ragged rows: see
    ``check_node_bytes``."""
    rng = np.random.default_rng(1900 + len(lengths) + 10 * heads + causal)
    check_node_bytes(rng, lengths, key_lengths(lengths), heads, causal)


def check_node_fd(rng, q_len, k_len, heads, causal):
    """Finite differences at 1e-4 for x_q, x_kv (x_q's own rows when
    ``k_len`` is None) and all seven projection arrays."""
    q_off = np.cumsum([0] + q_len)
    x, projections = projection_leaves(rng, int(q_off[-1]), 6, 8)
    x_kv, k_off = (x, q_off) if k_len is None else packed_rows(rng, k_len, 6)
    w = ad.constant(rng.normal(size=(int(q_off[-1]), 6)))
    fn = lambda _: sum_of(ad.attention(x, x_kv, *projections, heads, q_off, k_off, causal), w)
    for t in [x, x_kv] + flat(projections):
        assert finite_diff_check(fn, t) < 1e-4


@pytest.mark.parametrize("lengths, heads, causal", SELF_ATTENTION_CASES[1:])
def test_self_attention_matches_fd(lengths, heads, causal):
    check_node_fd(np.random.default_rng(950 + heads + causal), lengths, None, heads, causal)


@pytest.mark.parametrize("lengths, heads, causal", SELF_ATTENTION_CASES[1:])
def test_cross_attention_matches_fd(lengths, heads, causal):
    check_node_fd(np.random.default_rng(1950 + heads + causal), lengths, key_lengths(lengths),
                  heads, causal)


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("lengths, heads, causal", SELF_ATTENTION_CASES)
def test_a_key_bias_moves_attention_by_rounding_alone(lengths, heads, causal, cross):
    """A key bias adds q . bk to every score in a query's row, and softmax
    does not change when a constant is added to a whole row. So
    ``attention_ref`` with a unit-scale key bias gives the ``attention``
    node's output, which has none, up to rounding, and ``bk``'s gradient is
    rounding, while ``bq``'s and ``bv``'s are O(1): why keys are projected
    by their weight alone."""
    rng = np.random.default_rng(2900 + len(lengths) + 10 * heads + causal + 100 * cross)
    q_off = np.cumsum([0] + lengths)
    x, projections = projection_leaves(rng, int(q_off[-1]), 8, 8)
    x_kv, k_off = packed_rows(rng, key_lengths(lengths), 8) if cross else (x, q_off)
    (_, bq), _, (_, bv), _ = projections
    bk = rand_leaf(rng, 8)
    out = ad.attention(x, x_kv, *projections, heads, q_off, k_off, causal)
    biased = attention_ref(x, x_kv, *projections, heads, q_off, k_off, causal, bk=bk)
    assert np.max(np.abs(biased.data - out.data)) <= 1e-12
    grads = ad.backward(sum_of(biased, rng.normal(size=out.shape)))
    assert np.max(np.abs(grads[bk])) <= 1e-12
    assert min(np.max(np.abs(grads[bq])), np.max(np.abs(grads[bv]))) >= 0.05


def test_self_attention_over_constants_records_no_node():
    rng = np.random.default_rng(37)
    x, projections = projection_leaves(rng, 5, 4, 4)
    wq, bq, wk, wv, bv, wo, bo = (ad.constant(t.data) for t in flat(projections))
    c = ad.constant(x.data)
    out = ad.attention(c, c, (wq, bq), wk, (wv, bv), (wo, bo), 2, [0, 2, 5], [0, 2, 5], True)
    assert out.node is None and not out.requires_grad and out.parents == ()
    want = ad.attention(x, x, *projections, 2, [0, 2, 5], [0, 2, 5], True)
    assert np.array_equal(out.data, want.data)


def test_self_attention_rule_holds_x_and_p_and_no_projection():
    """The rule holds ``x``'s array, the six projection arrays it reads
    (not the output's bias), one padded (B, heads, L, L) array (``p``) and
    the layout's row slots: no (N, width) q, k or v, none of the heads'
    (N, width) outputs, and no other (N, d) array, its own output among
    them. Over other rows, it holds those too, and no projection of them.
    A constant ``x`` gets no gradient, and a constant projection none
    either."""
    rng = np.random.default_rng(41)
    lengths, rows = [2, 4, 1], 7
    off = np.cumsum([0] + lengths)
    x, projections = projection_leaves(rng, rows, 6, 8)
    other = rand_leaf(rng, 9, 6)
    *read, bo = (t.data for t in flat(projections))
    params = {id(a) for a in read}
    for x_kv, k_off, padded in ((x, off, (3, 2, 4, 4)), (other, [0, 5, 6, 9], (3, 2, 4, 5))):
        out = ad.attention(x, x_kv, *projections, 2, off, k_off)
        held = graph_bytes.rule_arrays(out.node.rule)
        floats = [a for a in held if a.dtype == np.float64 and id(a) not in params]
        assert {id(a) for a in held} >= params | {id(x.data), id(x_kv.data)}
        assert all(a is not bo for a in held)
        assert sorted(a.shape for a in floats) == sorted({padded, (rows, 6), x_kv.shape})
        assert all(a.shape not in ((rows, 8), (len(x_kv.data), 8)) for a in held)
        assert all(a.dtype == np.int64 and a.ndim == 1 for a in held if a.dtype != np.float64)

    c = ad.constant(x.data)
    (wq, bq), wk, v, o = projections
    frozen_q = (ad.constant(wq.data), ad.constant(bq.data))
    grads = ad.attention(c, c, frozen_q, wk, v, o, 2, [0, 3, 7], [0, 3, 7]).node.rule(np.ones((rows, 6)))
    assert grads[:4] == (None,) * 4 and grads[5] is None
    assert all(g is not None for g in grads[6:]) and len(grads) == 10


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
    fn = lambda _: sum_of(gelu_ref(ad.embedding(*pairs[0], *pairs[1:])), w)
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
    queries = ad.Segments(q_off, q.shape[0], "attention")
    keys = ad.Segments(k_off, k.shape[0], "attention")
    qlen, lq, klen, lk = queries.lengths, queries.longest, keys.lengths, keys.longest
    hd = q.shape[1] // heads
    qh, kh, vh = queries.split(q, heads), keys.split(k, heads), keys.split(v, heads)
    hidden = None if keys.shortest == lk else (np.arange(lk) >= klen[:, None])[:, None]
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
    out = queries.merge(p @ vh)
    gh = queries.split(g, heads)
    dp = gh @ vh.swapaxes(2, 3)
    dz = p * (dp - (dp * p).sum(axis=3, keepdims=True)) * norm
    return (out, queries.merge(dz @ kh), keys.merge(dz.swapaxes(2, 3) @ qh),
            keys.merge(p.swapaxes(2, 3) @ gh))


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
        kv, k_off = packed_rows(rng, k_len, 16)
        g = rng.normal(size=q.shape)
        out = attention_over(q, kv, heads, q_off, k_off, causal)
        want = attention_keeping_copies(q.data, kv.data[:, :8], kv.data[:, 8:], heads, q_off, k_off,
                                        g, causal)
        grads = out.node.rule(g)
        for got, ref in zip((out.data, grads[0], grads[3][:, :8], grads[5][:, 8:]), want):
            assert np.array_equal(got, ref)
        held = graph_bytes.rule_arrays(out.node.rule)
        padded = [a for a in held if a.ndim == 4]
        assert len(padded) == 1 and padded[0].shape == (len(q_len), heads, max(q_len), max(k_len))


def test_segments_split_and_merge_round_trip_bitwise():
    """``Segments`` pads nothing for equal lengths, and then its split is a
    view of the packed rows; on ragged rows ``merge(split(x, heads))`` gives
    ``x`` back bit for bit, with zeros in the padded slots. Each offset
    refusal keeps its message."""
    rng = np.random.default_rng(61)
    even = ad.Segments([0, 3, 6], 6, "attention")
    assert even.slot is None and (even.shortest, even.longest) == (3, 3)
    x = rng.normal(size=(6, 4))
    assert np.shares_memory(even.split(x, 2), x) and np.array_equal(even.merge(even.split(x, 2)), x)
    for lengths, heads in (([2, 0, 5, 1], 2), ([1, 4], 4), ([3, 1, 3], 1)):
        rows = ad.Segments(np.cumsum([0] + lengths), sum(lengths), "attention")
        assert rows.lengths.tolist() == lengths and rows.longest == max(lengths)
        assert (rows.shortest, rows.slot.shape) == (min(lengths), (sum(lengths),))
        x = rng.normal(size=(sum(lengths), 8))
        split = rows.split(x, heads)
        assert split.shape == (len(lengths), heads, max(lengths), 8 // heads)
        assert np.array_equal(rows.merge(split), x)
        assert np.count_nonzero(split) == x.size
    with pytest.raises(ShapeError, match=r"^attention: offsets of shape \(3,\) do not bound 5 rows$"):
        ad.Segments([0, 2, 4], 5, "attention")
    with pytest.raises(ShapeError, match=r"^segment_mean: offsets are not ascending$"):
        ad.Segments([0, 3, 2, 5], 5, "segment_mean")


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
        "linear": (lambda: sum_of(gelu_ref(ad.linear(x, w, b))), (x, w, b)),
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
    "ffn": (lambda p: ad.ffn(*p), [(3, 4), (4, 5), (5,), (5, 2), (2,)], {0, 1, 2, 3}),
    "layer_norm": (lambda p: ad.layer_norm(*p), [(3, 4), (4,), (4,)], {1}),
    "residual layer_norm": (lambda p: ad.layer_norm(p[0], p[2], p[3], residual=p[1]),
                            [(3, 4), (3, 4), (4,), (4,)], {2}),
    "attention": (lambda p: ad.attention(p[0], p[1], (p[2], p[3]), p[4], (p[5], p[6]),
                                         (p[7], p[8]), 2, [0, 1, 3], [0, 2, 5]),
                  [(3, 4), (5, 4), (4, 4), (4,), (4, 4), (4, 4), (4,), (4, 3), (3,)],
                  set(range(8))),
    "self_attention": (lambda p: ad.attention(p[0], p[0], (p[1], p[2]), p[3], (p[4], p[5]),
                                              (p[6], p[7]), 2, [0, 1, 3], [0, 1, 3], True),
                       [(3, 4), (4, 4), (4,), (4, 4), (4, 4), (4,), (4, 4), (4,)],
                       set(range(7))),
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
    ``ffn`` x and every weight but the output bias (its rule rebuilds the
    hidden rows, their GELU output and slope from x), ``attention`` its
    inputs and every projection but the output bias, in its cross and
    self forms (its rule projects q, k and v again from them, and rebuilds
    the heads' outputs, so it holds none of them), ``pair_contrast`` its
    input (its rule
    rebuilds the pair differences from it), ``layer_norm`` its gain, and no
    other op any. Backward frees them all."""
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
    leaves = (rand_leaf(rng, 3, 4), rand_leaf(rng, 4, 5), rand_leaf(rng, 5), rand_leaf(rng, 5, 2),
              rand_leaf(rng, 2))
    h = ad.ffn(*leaves)
    loss = sum_of(h, h)
    grads = ad.backward(loss)
    first = [grads[t].copy() for t in leaves]
    for again in (loss, sum_of(h)):
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(again)
        for t, g in zip(leaves, first):
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


def test_backward_continues_an_earlier_calls_sums_in_one_pass_order():
    """``backward(b, backward(a))``, ``b``'s graph built after ``a``'s was
    consumed, gives every leaf the bytes ``backward(add(a, b))`` gives when
    the two graphs share only leaves: ``x`` gets three contributions, two
    through ``a`` and one through ``b``. A leaf only ``a`` reaches keeps
    its gradient, and the first call's arrays are not written. Started the
    other way round, ``backward(a, backward(b))`` adds some sum in another
    order, and its bytes differ. A loss that is itself a leaf adds 1 to its
    entry."""
    rng = np.random.default_rng(71)
    x, w, u, v = (rand_leaf(rng, 6, 4), rand_leaf(rng, 4, 3), rand_leaf(rng, 4, 3),
                  rand_leaf(rng, 4, 3))
    w.data *= 3.0  # unsaturated softmaxes, and terms of three sizes: every order rounds apart
    v.data *= 1e-3
    targets = [0, 1, 2, 0, 1, 2]

    def a():
        return ad.softmax_cross_entropy(ad.add(ad.matmul(x, w), ad.matmul(x, u)), targets)

    def b():
        return ad.softmax_cross_entropy(ad.matmul(x, v), targets[::-1])

    joint = ad.backward(ad.add(a(), b()))
    first = ad.backward(a())
    kept = {t: g.copy() for t, g in first.items()}
    assert set(first) == {x, w, u}
    got = ad.backward(b(), first)
    assert all(first[t].tobytes() == g.tobytes() for t, g in kept.items())
    assert set(got) == set(joint) == {x, w, u, v}
    assert all(got[t].tobytes() == joint[t].tobytes() for t in joint)
    assert got[u].tobytes() == kept[u].tobytes()  # b does not reach u
    reverse = ad.backward(a(), ad.backward(b()))
    assert reverse[x].tobytes() != joint[x].tobytes()
    assert all(reverse[t].tobytes() == joint[t].tobytes() for t in (w, u, v))
    s = leaf(np.array(2.0))
    assert ad.backward(s, {s: np.array(0.5)})[s] == 1.5


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


def ones(*shape):
    return leaf(np.ones(shape))


def projections():
    """``attention``'s projections of width 4 to 4: the queries' (w, b)
    pair, the keys' weight, the values' pair and the output's pair."""
    return (ones(4, 4), ones(4)), ones(4, 4), (ones(4, 4), ones(4)), (ones(4, 4), ones(4))


def output_projection(wo, bo):
    """``attention`` of two rows of width 4 over themselves, in two heads,
    with ``projections`` but the output's pair ``(wo, bo)``."""
    return ad.attention(ones(2, 4), ones(2, 4), *projections()[:3], (wo, bo), 2, [0, 2], [0, 2])


def two_heads():
    """Two samples of one key each, laid out in two heads of width 2."""
    return ad.head_layout(np.ones((2, 4)), np.ones((2, 4)), 2, [0, 1, 2])


# for each input check of ``autodiff``: a call it refuses, the error's type,
# and a pattern of its message that no other check of the call matches
REFUSED = {
    "item of many": (lambda: ones(2).item(), ContractError, "item"),
    "matmul 1-D": (lambda: ad.matmul(ones(3), ones(3, 2)), ShapeError, "2-D"),
    "transpose 1-D": (lambda: ad.transpose(ones(3)), ShapeError, "2-D"),
    "reshape size": (lambda: ad.reshape(ones(2, 3), (4, 2)), ShapeError, "cannot view"),
    "concat_rows empty": (lambda: ad.concat_rows([]), ContractError, "empty"),
    "concat_rows widths": (lambda: ad.concat_rows([ones(2, 3), ones(2, 4)]), ShapeError,
                           "inconsistent"),
    "embedding 1-D table": (lambda: ad.embedding(ones(3), [0]), ShapeError, "table must be 2-D"),
    "embedding 2-D ids": (lambda: ad.embedding(ones(3, 2), [[0, 1]]), ShapeError, "flat"),
    "pair_contrast labels": (lambda: ad.pair_contrast(ones(3, 2), np.ones((2, 2), dtype=bool)),
                             ShapeError, "label matrix"),
    "layer_norm 1-D": (lambda: ad.layer_norm(ones(4), ones(4), ones(4)), ShapeError, "2-D"),
    "layer_norm gain": (lambda: ad.layer_norm(ones(2, 4), ones(3), ones(4)), ShapeError, "gain"),
    "layer_norm residual": (lambda: ad.layer_norm(ones(2, 4), ones(4), ones(4), residual=ones(3, 4)),
                            ShapeError, "residual"),
    "attention widths": (lambda: ad.attention(ones(2, 4), ones(2, 6), *projections(), 2, [0, 2],
                                              [0, 2]), ShapeError, "incompatible"),
    "softmax_cross_entropy 1-D": (lambda: ad.softmax_cross_entropy(ones(3), [0]), ShapeError,
                                  "2-D"),
    "softmax_cross_entropy target": (lambda: ad.softmax_cross_entropy(ones(2, 3), [0, 3]),
                                     IndexError, "outside"),
    "dropout rate": (lambda: ad.dropout(ones(3), 1.0, np.random.default_rng(0)), ContractError,
                     "rate"),
    "backward non-finite": (lambda: ad.backward(leaf(np.array(np.nan))), NumericError,
                            "not finite"),
    "ffn shapes": (lambda: ad.ffn(ones(2, 3), ones(4, 2), ones(2), ones(2, 2), ones(2)),
                   ShapeError, "ffn"),
    "ffn bias": (lambda: ad.ffn(ones(2, 3), ones(3, 2), ones(3), ones(2, 2), ones(2)), ShapeError,
                 "ffn"),
    "ffn 1-D": (lambda: ad.ffn(ones(3), ones(3, 2), ones(2), ones(2, 2), ones(2)), ShapeError,
                "ffn"),
    "ffn 1-D weight": (lambda: ad.ffn(ones(2, 3), ones(3), ones(2), ones(2, 2), ones(2)),
                       ShapeError, "ffn"),
    "ffn 1-D output weight": (lambda: ad.ffn(ones(2, 3), ones(3, 2), ones(2), ones(2), ones(2)),
                              ShapeError, "ffn"),
    "ffn output rows": (lambda: ad.ffn(ones(2, 3), ones(3, 2), ones(2), ones(3, 2), ones(2)),
                        ShapeError, "ffn"),
    "ffn output bias": (lambda: ad.ffn(ones(2, 3), ones(3, 2), ones(2), ones(2, 2), ones(3)),
                        ShapeError, "ffn"),
    "attention output 1-D": (lambda: output_projection(ones(4), ones(4)), ShapeError,
                             "incompatible"),
    "attention output rows": (lambda: output_projection(ones(3, 4), ones(4)), ShapeError,
                              "incompatible"),
    "attention output bias": (lambda: output_projection(ones(4, 4), ones(3)), ShapeError,
                              "incompatible"),
    "self_attention 1-D": (lambda: ad.attention(ones(4), ones(4), *projections(), 2, [0, 4], [0, 4]),
                           ShapeError, "incompatible"),
    "self_attention 2-D bias": (lambda: ad.attention(ones(2, 4), ones(2, 4),
                                                     (ones(4, 4), ones(1, 4)), ones(4, 4),
                                                     (ones(4, 4), ones(1, 4)),
                                                     (ones(4, 4), ones(4)), 2, [0, 2], [0, 2]),
                                ShapeError, "incompatible"),
    "self_attention value bias": (lambda: ad.attention(ones(2, 4), ones(2, 4), (ones(4, 4), ones(4)),
                                                       ones(4, 4), (ones(4, 4), ones(3)),
                                                       (ones(4, 4), ones(4)), 2, [0, 2], [0, 2]),
                                  ShapeError, "incompatible"),
    "self_attention rows": (lambda: ad.attention(ones(2, 3), ones(2, 3), *projections(), 2, [0, 2],
                                                 [0, 2]), ShapeError, "incompatible"),
    "self_attention widths": (lambda: ad.attention(ones(2, 4), ones(2, 4), (ones(4, 4), ones(4)),
                                                   ones(4, 6), (ones(4, 4), ones(4)),
                                                   (ones(4, 4), ones(4)), 2, [0, 2], [0, 2]),
                              ShapeError, "incompatible"),
    "self_attention heads": (lambda: ad.attention(ones(2, 4), ones(2, 4), *projections(), 3, [0, 2],
                                                  [0, 2]), ShapeError, "heads"),
    "self_attention offsets": (lambda: ad.attention(ones(2, 4), ones(2, 4), *projections(), 2,
                                                    [0, 3], [0, 2]), ShapeError, "do not bound"),
    "cross_attention 1-D": (lambda: ad.attention(ones(2, 4), ones(4), *projections(), 2, [0, 2],
                                                 [0, 4]), ShapeError, "incompatible"),
    "cross_attention widths": (lambda: ad.attention(ones(2, 4), ones(3, 6), *projections(), 2,
                                                    [0, 2], [0, 3]), ShapeError, "incompatible"),
    "cross_attention offsets": (lambda: ad.attention(ones(2, 4), ones(3, 4), *projections(), 2,
                                                     [0, 2], [0, 2]), ShapeError, "do not bound"),
    "attend gradient": (lambda: ad.attend(ones(2, 4), two_heads(), [0, 1, 2]), ContractError,
                        "no gradient"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_each_input_check_refuses_with_its_error(name):
    """Each check of ``autodiff``'s inputs fires on the input it guards
    against, with its own error type and message."""
    call, error, pattern = REFUSED[name]
    with pytest.raises(error, match=pattern):
        call()


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


def special_rows(rng, rows, cols, flip=False):
    """A (rows, cols) normal array scaled by 3 with ``SPECIALS`` in its first
    and (reversed) its last elements; ``flip`` swaps the two."""
    x = 3.0 * rng.normal(size=rows * cols)
    first, last = (SPECIALS[::-1], SPECIALS) if flip else (SPECIALS, SPECIALS[::-1])
    x[:SPECIALS.size], x[-SPECIALS.size:] = first, last
    return x.reshape(rows, cols)


@pytest.mark.parametrize("cols", [16, 128])
def test_gelu_bytes_equal_the_whole_array_expressions(cols):
    """At one row, around one row block and over several, the GELU kernel
    (``_gelu_rows`` over ``_by_rows``) gives the bytes of the whole-array
    expressions (``gelu_ref``), with special values in the first and the
    last block of the input: its output, with the slope and without it, and
    its slope, the reference rule's bracket (its rule at g = 1). The
    gradient ``g * slope`` is the reference rule's, g the input reversed as
    in the dropout test, but one case is only NaN for NaN: where a NaN
    gradient meets a NaN bracket in the last product ``g * (...)``, which of
    the two NaNs survives is numpy's choice, and on arrays of 256 KB or more
    its temporary elision swaps the reference's operands."""
    rng = np.random.default_rng(43)
    for rows in block_rows(cols):
        x = special_rows(rng, rows, cols)
        g = x[::-1, ::-1].copy()
        slope = np.empty(x.shape)
        with np.errstate(all="ignore"):  # 1e308 overflows, inf * 0 is NaN
            (out,) = ad._by_rows(ad._gelu_rows, (x, slope), (x.shape,))
            (bare,) = ad._by_rows(ad._gelu_rows, (x, None), (x.shape,))
            ref = gelu_ref(leaf(x))
            (want,), (bracket,) = ref.node.rule(g), ref.node.rule(np.ones_like(g))
            dx = np.multiply(g, slope)
        assert out.tobytes() == bare.tobytes() == ref.data.tobytes(), rows
        assert slope.tobytes() == bracket.tobytes(), rows
        meet = np.isnan(g) & np.isnan(bracket)
        assert meet.any() and np.isnan(dx[meet]).all(), rows
        assert dx[~meet].tobytes() == want[~meet].tobytes(), rows


def same_but_nan_payloads(a, b):
    """Whether ``a`` and ``b`` are NaN at the same elements and have the
    same bytes at every other."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("cols", [16, 128])
def test_ffn_bytes_equal_linear_then_the_whole_array_gelu_then_linear(cols):
    """At one row, around one row block and over several, ``ffn``'s output
    and its five gradients have the bytes of ``linear``, then ``gelu_ref``,
    then ``linear``: on normal rows, and with special values in the first
    and the last block of the input and of the upstream gradient. There,
    as in the test above, the hidden rows' gradient is only NaN for NaN
    where a NaN in g @ w2.T meets a NaN bracket, and the gradients formed
    from it, of x, w1 and b1, carry that NaN through a row or column: they
    are NaN where the reference's are, and have its bytes elsewhere."""
    rng = np.random.default_rng(71)
    for rows in block_rows(cols):
        w1, b1 = rng.normal(size=(cols, cols)) / 4.0, rng.normal(size=cols)
        w2, b2 = rng.normal(size=(cols, 16)), rng.normal(size=16)
        for special in (False, True):
            x, g = ((special_rows(rng, rows, cols), special_rows(rng, rows, 16, flip=True))
                    if special else (3.0 * rng.normal(size=(rows, cols)), rng.normal(size=(rows, 16))))
            with np.errstate(all="ignore"):  # 1e308 overflows, inf * 0 is NaN
                fused = ad.ffn(*(leaf(a) for a in (x, w1, b1, w2, b2)))
                h = ad.linear(leaf(x), leaf(w1), leaf(b1))
                mid = gelu_ref(h)
                ref = ad.linear(mid, leaf(w2), leaf(b2))
                dx, dw1, db1, dw2, db2 = fused.node.rule(g)
                dm, want_dw2, want_db2 = ref.node.rule(g)
                (want_dh,), (bracket,) = mid.node.rule(dm), mid.node.rule(np.ones_like(dm))
                want_dx, want_dw1, want_db1 = h.node.rule(want_dh)
            exact = [(fused.data, ref.data), (dw2, want_dw2), (db2, want_db2)]
            formed = [(dx, want_dx), (dw1, want_dw1), (db1, want_db1)]
            assert (np.isnan(dm) & np.isnan(bracket)).any() == special, rows
            if not special:
                exact, formed = exact + formed, []
            assert all(a.tobytes() == b.tobytes() for a, b in exact), (rows, special)
            assert all(same_but_nan_payloads(a, b) for a, b in formed), rows


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
def test_pair_contrast_agrees_with_the_incidence_matrix_reference(labels, cols, twins):
    """The op's value and every entry of its gradient agree within 1e-12
    relative with the incidence-matrix reference (``pair_contrast_ref``):
    with every row active (each has a same-label partner), with some rows
    inactive, with twin rows, whose zero-distance pairs take no part, and
    at stage one's size (64 rows of width 64, 16 of them unpartnered). A
    zero output gradient gives an all-zero gradient. With no shared label
    the op is the constant 0, where the reference's gradient is 0."""
    x = np.random.default_rng(59).normal(size=(len(labels), cols))
    for row, twin in twins:
        x[row] = x[twin]
    same = np.equal.outer(labels, labels)
    got, ref = ad.pair_contrast(leaf(x), same), pair_contrast_ref(leaf(x), same)
    np.testing.assert_allclose(got.data, ref.data, rtol=1e-12, atol=0.0)
    shared = len(set(labels)) < len(labels)
    assert (got.op == "pair_contrast") == shared and (got.node is None) != shared
    for g in (0.7, -1.3, 0.0):
        (want,) = ref.node.rule(np.array(g))
        if shared:
            (grad,) = got.node.rule(np.array(g))
            np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0.0)
            assert grad.any() == (g != 0.0)
        else:
            assert not want.any()


def test_row_kernels_hold_whole_arrays_and_share_no_buffer():
    """Over several row blocks, ``ffn``'s rule holds exactly four arrays,
    its input's and its weights' but the output bias, and no (N, ffn)
    array of its own; over a constant input it holds the same and gives it
    no gradient. ``layer_norm``'s holds exactly xhat, inv and the gain. No
    rule holds block scratch, and two calls share no memory, so no buffer
    outlives the call that made it."""
    rng = np.random.default_rng(53)
    rows, cols = 3 * (ad._BLOCK // 16) + 5, 16
    x, gain, bias = leaf(rng.normal(size=(rows, cols))), rand_leaf(rng, cols), rand_leaf(rng, cols)
    weights = (rand_leaf(rng, cols, cols), rand_leaf(rng, cols), rand_leaf(rng, cols, 4),
               rand_leaf(rng, 4))
    read = {id(t.data) for t in weights[:3]}
    made = []
    for _ in range(2):
        out = ad.ffn(x, *weights)
        held = graph_bytes.rule_arrays(out.node.rule)
        assert len(held) == 4 and {id(a) for a in held} == read | {id(x.data)}
        made.append(out.data)
        c = ad.constant(x.data)
        out = ad.ffn(c, *weights)
        held = graph_bytes.rule_arrays(out.node.rule)
        assert len(held) == 4 and {id(a) for a in held} == read | {id(c.data)}
        assert out.node.rule(np.ones(out.shape))[0] is None
        made.append(out.data)
        out = ad.layer_norm(x, gain, bias)
        held = graph_bytes.rule_arrays(out.node.rule)
        assert sorted(a.shape for a in held) == [(cols,), (rows, 1), (rows, cols)]
        assert any(a is gain.data for a in held) and all(a.base is None for a in held)
        made += [out.data] + [a for a in held if a is not gain.data]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(made) for b in made[i + 1:])


def test_graph_bytes_peak_traces_a_round_and_puts_the_module_back(capsys):
    """``scripts/graph_bytes.py --smoke --peak`` prints a census at each of
    the first stage-one step's two backwards, the corrupted pass's (no
    ``pair_contrast``) and then the clean pass's, and then one traced
    round's peak by op window, with every op and rule of the round
    credited, and leaves ``ad`` and ``tracemalloc`` as it found them."""
    before = dict(vars(ad))
    assert graph_bytes.main(["--smoke", "--peak"]) == 0
    assert vars(ad).keys() == before.keys() and all(vars(ad)[k] is v for k, v in before.items())
    assert not tracemalloc.is_tracing()
    printed = capsys.readouterr().out
    corrupted, clean = printed.split("bytes held at stage-one backward ")[1:]
    assert corrupted.startswith("1 of 2 of the first step") and "pair_contrast" not in corrupted
    assert clean.startswith("2 of 2 of the first step") and "pair_contrast" in clean
    assert "peak traced memory over one pretrain-d64 round" in clean
    windows, _, tally = graph_bytes.round_peaks(0, smoke=True)
    assert tally.attempted and not tally.failed
    for op in ("linear", "attention", "ffn", "layer_norm", "pair_contrast"):
        assert windows.calls[op, "forward"] > 0 and windows.peak[op, "forward"] > 0, op
        assert windows.calls[op, "rule"] > 0 and windows.peak[op, "rule"] > 0, op
    assert windows.peak[windows.BETWEEN] > 0


def test_graph_bytes_max_peak_mb_gates_the_round_peak(capsys):
    """``--max-peak-mb X`` traces and prints one round as ``--peak`` does,
    and exits 1, naming the peak and the bound, when the peak is more than
    X MB; 0 when it is not."""
    assert graph_bytes.main(["--smoke", "--max-peak-mb", "1000"]) == 0
    printed = capsys.readouterr()
    assert "peak traced memory over one pretrain-d64 round" in printed.out and printed.err == ""
    assert graph_bytes.main(["--smoke", "--max-peak-mb", "0.01"]) == 1
    assert "MB, exceeds --max-peak-mb 0.01" in capsys.readouterr().err


def test_op_times_times_every_op_and_puts_the_module_back(capsys):
    """``scripts/op_times.py`` times a smoke unit of ``pretrain-d64`` with
    every public autodiff function and every recorded rule timed, checks
    the unit's outputs, and leaves the module as it found it; its command
    line (``--smoke --units 1``) prints the table."""
    before = dict(vars(ad))
    clock, wall, tally = op_times.time_units("pretrain-d64", 1, 0, smoke=True)
    assert tally.attempted and not tally.failed and wall > 0
    assert vars(ad).keys() == before.keys() and all(vars(ad)[k] is v for k, v in before.items())
    for op in ("linear", "attention", "ffn", "layer_norm", "dropout", "pair_contrast"):
        assert clock.calls[op, "forward"] > 0 and clock.seconds[op, "rule"] > 0, op
    # two steps in each of two stages; a stage-one step backpropagates each pass apart
    assert clock.calls["backward", "forward"] == 6
    assert op_times.main(["--smoke", "--units", "1"]) == 0
    assert vars(ad).keys() == before.keys() and all(vars(ad)[k] is v for k, v in before.items())
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("autodiff self seconds per unit, pretrain-d64 (smoke), seed 0")
    assert printed[1].split() == ["op", "calls", "forward", "rule", "total"]
    assert {line.split()[0] for line in printed[2:]} >= {"attention", "backward", "total"}


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


def test_raise_reach_finds_every_raise(tmp_path):
    """``scripts/raise_reach.py`` finds every ``raise`` statement, at module
    level, in functions, methods and nested functions, by file and line."""
    (tmp_path / "m.py").write_text(
        "if False:\n    raise ValueError('top')\n"
        "def f(x):\n    if x:\n        raise ValueError('x')\n    raise ValueError('x')\n"
        "class C:\n    def g(self):\n        def h():\n            raise KeyError(\n"
        "                'h')\n        return h\n")
    path = str((tmp_path / "m.py").resolve())
    assert raise_reach.raise_sites(tmp_path) == {(path, 2), (path, 5), (path, 6), (path, 10)}

