import math

import numpy as np
import pytest

import sentigen.autodiff as ad
from sentigen.errors import ContractError, NumericError, ShapeError


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
    loss_fn = lambda t: ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))
    assert ad.finite_diff_check(loss_fn, a) < 1e-6
    assert ad.finite_diff_check(loss_fn, b) < 1e-6


# ---------------------------------------------------------------------------
# per-op finite differences


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_ops_match_fd(seed):
    rng = np.random.default_rng(seed)
    a = rand_leaf(rng, 4, 3)
    b = rand_leaf(rng, 4, 3)
    row = rand_leaf(rng, 3)
    cases = {
        "add": lambda: ad.sum_all(ad.gelu(ad.add(a, b))),
        "row_broadcast": lambda: ad.sum_all(ad.mul(ad.add(a, row), ad.add(a, row))),
        "sub": lambda: ad.sum_all(ad.mul(ad.sub(a, b), ad.sub(a, b))),
        "mul": lambda: ad.sum_all(ad.mul(a, b)),
        "scale": lambda: ad.sum_all(ad.scale(a, -2.5)),
        "gelu": lambda: ad.sum_all(ad.gelu(a)),
    }
    for name, fn in cases.items():
        for t in (a, b, row):
            assert ad.finite_diff_check(lambda _: fn(), t) < 1e-6, name


@pytest.mark.parametrize("seed", range(5))
def test_structural_ops_match_fd(seed):
    rng = np.random.default_rng(100 + seed)
    a = rand_leaf(rng, 5, 4)
    b = rand_leaf(rng, 2, 4)

    def fn():
        cat = ad.concat_rows([a, b])
        sl = ad.slice_rows(cat, 1, 6)
        cols = ad.transpose(ad.slice_rows(ad.transpose(sl), 1, 3))  # columns 1:3
        tiled = ad.tile_rows(ad.reshape(ad.slice_rows(cols, 0, 1), (2,)), 3)
        tr = ad.transpose(ad.reshape(cols, (2, 5)))
        return ad.add(ad.sum_all(ad.mul(tr, tr)), ad.sum_all(tiled))

    assert ad.finite_diff_check(lambda _: fn(), a) < 1e-6
    assert ad.finite_diff_check(lambda _: fn(), b) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_reduction_norm_softmax_match_fd(seed):
    rng = np.random.default_rng(200 + seed)
    a = rand_leaf(rng, 4, 6)
    gain = rand_leaf(rng, 6)
    bias = rand_leaf(rng, 6)
    keep = np.array([1.0, 1.0, 0.0, 1.0])

    cases = {
        "layer_norm": lambda: ad.sum_all(ad.mul(ad.layer_norm(a, gain, bias),
                                                ad.layer_norm(a, gain, bias))),
        "softmax": lambda: ad.sum_all(ad.mul(ad.softmax(a), a)),
        "masked_mean": lambda: ad.sum_all(ad.masked_mean_rows(a, keep)),
        "sqrt": lambda: ad.sum_all(ad.sqrt(ad.add(ad.mul(a, a), ad.constant(np.ones((4, 6)))))),
        "div": lambda: ad.sum_all(ad.div(a, ad.add(ad.mul(a, a), ad.constant(np.full((4, 6), 2.0))))),
        "ce": lambda: ad.softmax_cross_entropy(a, [1, 0, 5, 3]),
        "gather": lambda: ad.softmax_cross_entropy(ad.gather_cols(a, [0, 2, 5]), [2, 0, 1, 1]),
    }
    for name, fn in cases.items():
        for t in (a, gain, bias):
            assert ad.finite_diff_check(lambda _: fn(), t) < 1e-6, name


def test_embedding_rows_and_fd():
    rng = np.random.default_rng(3)
    table = rand_leaf(rng, 6, 4)
    ids = [1, 3, 3, 0]
    out = ad.embedding(table, ids)
    assert out.data.shape == (4, 4)
    loss_fn = lambda _: ad.sum_all(ad.mul(ad.embedding(table, ids), ad.embedding(table, ids)))
    assert ad.finite_diff_check(loss_fn, table) < 1e-6
    ad.zero_grads([table])
    ad.backward(ad.sum_all(ad.embedding(table, ids)))
    # repeated index accumulates, untouched rows stay exactly zero
    assert np.all(table.grad[3] == 2.0)
    assert np.all(table.grad[1] == 1.0)
    assert np.all(table.grad[2] == 0.0) and np.all(table.grad[5] == 0.0)


def attention_reference(q, k, v, bias, heads):
    """Per-head loop over column blocks: the fused op's forward oracle."""
    hd = q.shape[1] // heads
    out = []
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        z = q[:, cols] @ k[:, cols].T / math.sqrt(hd) + bias
        p = np.exp(z - z.max(axis=1, keepdims=True))
        out.append((p / p.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(out, axis=1)


def batch_key_bias(batch, lq, lk):
    """Per-sample biases: sample b masks key columns b and b + 2 of its own
    keys (column 4 when b == 2), and sample 0 also masks one single entry."""
    bias = np.zeros((batch, lq, lk))
    for b in range(batch):
        bias[b, :, [b, min(b + 2, lk - 1)]] = -1e30
    bias[0, 0, 3] = -1e30
    return bias


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_reference_and_fd(heads):
    for batch in (1, 3):
        check_attention(heads, batch)


def check_attention(heads, batch):
    rng = np.random.default_rng(400 + heads + 10 * batch)
    lq, lk, d = 3, 5, 8
    q, k, v = (rand_leaf(rng, batch * lq, d), rand_leaf(rng, batch * lk, d),
               rand_leaf(rng, batch * lk, d))
    bias = batch_key_bias(batch, lq, lk)
    w = ad.constant(rng.normal(size=(batch * lq, d)))

    out = ad.attention(q, k, v, bias, heads)
    ref = np.concatenate([
        attention_reference(q.data[b * lq:(b + 1) * lq], k.data[b * lk:(b + 1) * lk],
                            v.data[b * lk:(b + 1) * lk], bias[b], heads)
        for b in range(batch)])
    assert np.allclose(out.data, ref, atol=1e-12)
    if batch == 1:  # a 2-D bias is the batch of one
        assert np.array_equal(ad.attention(q, k, v, bias[0], heads).data, out.data)
    fn = lambda _: ad.sum_all(ad.mul(ad.attention(q, k, v, bias, heads), w))
    for t in (q, k, v):
        assert ad.finite_diff_check(fn, t) < 1e-6
    # keys and values masked for every query of their sample get exactly no gradient
    ad.zero_grads([k, v])
    ad.backward(fn(None))
    masked = [b * lk + c for b in range(batch) for c in range(lk) if np.all(bias[b, :, c] < 0)]
    assert len(masked) == 2 * batch
    assert np.all(k.grad[masked] == 0.0) and np.all(v.grad[masked] == 0.0)
    with pytest.raises(ShapeError):
        ad.attention(q, k, v, bias, 3)
    with pytest.raises(ShapeError):
        ad.attention(q, k, v, bias[:, :, :2], heads)
    with pytest.raises(ShapeError):
        ad.attention(q, k, v, np.zeros((batch + 1, lq, lk)), heads)


def test_attention_samples_are_isolated():
    """Perturbing one sample's keys and values leaves every other sample's
    output bit-identical; a (B, 1, Lk) bias applies one row per sample."""
    rng = np.random.default_rng(9)
    batch, lq, lk, d = 3, 2, 4, 8
    q = ad.constant(rng.normal(size=(batch * lq, d)))
    k = rng.normal(size=(batch * lk, d))
    v = rng.normal(size=(batch * lk, d))
    bias = np.zeros((batch, 1, lk))
    bias[1, 0, 3] = -1e30
    base = ad.attention(q, ad.constant(k), ad.constant(v), bias, 2).data
    k2, v2 = k.copy(), v.copy()
    k2[2 * lk:] += rng.normal(size=(lk, d))
    v2[2 * lk:] *= 7.0
    moved = ad.attention(q, ad.constant(k2), ad.constant(v2), bias, 2).data
    assert np.array_equal(moved[:2 * lq], base[:2 * lq])
    assert not np.allclose(moved[2 * lq:], base[2 * lq:])
    full = np.broadcast_to(bias, (batch, lq, lk))
    assert np.array_equal(ad.attention(q, ad.constant(k), ad.constant(v), full, 2).data, base)


def test_masked_mean_rows_per_sample():
    rng = np.random.default_rng(12)
    a = rand_leaf(rng, 3 * 4, 5)
    keep = np.array([[1, 1, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
    out = ad.masked_mean_rows(a, keep)
    assert out.shape == (3, 5)
    for b in range(3):
        one = ad.masked_mean_rows(ad.constant(a.data[4 * b:4 * b + 4]), keep[b])
        assert np.array_equal(out.data[b], one.data)
    w = ad.constant(rng.normal(size=(3, 5)))
    assert ad.finite_diff_check(lambda _: ad.sum_all(ad.mul(ad.masked_mean_rows(a, keep), w)), a) < 1e-6
    with pytest.raises(ContractError):
        ad.masked_mean_rows(a, np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=bool))
    with pytest.raises(ShapeError):
        ad.masked_mean_rows(a, keep[:2])


def test_ops_over_constants_record_no_graph():
    a = ad.constant(np.ones((2, 2)))
    out = ad.sum_all(ad.matmul(a, ad.transpose(a)))
    assert out.parents == () and out._rule is None and not out.requires_grad
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
        assert ad.finite_diff_check(lambda _: fn(), t) < 1e-4


def test_shared_subexpression_grad():
    x = leaf([[2.0]])
    y = ad.mul(x, x)          # x^2
    z = ad.add(y, y)          # 2 x^2 -> dz/dx = 4x = 8
    ad.backward(ad.sum_all(z))
    assert x.grad[0, 0] == pytest.approx(8.0, abs=1e-12)


def test_grad_accumulates_across_backward_calls():
    x = leaf([[3.0]])
    ad.backward(ad.sum_all(ad.mul(x, x)))
    first = x.grad.copy()
    ad.backward(ad.sum_all(ad.mul(x, x)))
    assert np.allclose(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_needs_scalar_and_graph_is_acyclic():
    x = leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, x))
    y = ad.mul(x, x)
    loss = ad.sum_all(ad.add(y, ad.scale(y, 2.0)))
    order = ad._topological_order(loss)
    assert order[-1] is loss
    assert len({id(t) for t in order}) == len(order) == 5  # x, y, scale, add, sum_all
    seen = set()
    for node in order:
        for p in node.parents:
            assert id(p) in seen
        seen.add(id(node))


def test_backward_gives_each_leaf_its_own_buffer():
    a = leaf(np.ones((2, 3)))
    b = leaf(np.ones((2, 3)))
    ad.backward(ad.sum_all(ad.add(a, b)))
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    a.grad *= 0.5  # what clip_gradients does
    assert np.all(b.grad == 1.0) and np.all(a.grad == 0.5)
    # views handed out by structural rules are copied into row-major buffers
    c, d = leaf(np.ones((2, 2))), leaf(np.ones((3, 2)))
    ad.backward(ad.sum_all(ad.concat_rows([c, d])))
    e = leaf(np.ones((2, 3)))
    ad.backward(ad.sum_all(ad.mul(ad.transpose(e), leaf(np.ones((3, 2))))))
    for t in (c, d, e):
        assert t.grad.flags.c_contiguous and t.grad.flags.owndata


def test_constant_parent_gets_no_grad():
    c = ad.constant(np.ones((2, 2)))
    x = leaf(np.full((2, 2), 3.0))
    ad.backward(ad.sum_all(ad.mul(ad.add(c, x), c)))
    assert c.grad is None
    assert np.all(x.grad == 1.0)


def test_div_by_zero_is_numeric_error():
    a = leaf(np.ones((2, 2)))
    b = leaf(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        ad.div(a, b)


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
    ad.backward(ad.sum_all(kept))
    assert np.array_equal(x.grad, np.where(kept.data > 0, 2.0, 0.0))


def test_parameter_and_grad_norm():
    rng = np.random.default_rng(1)
    p = ad.parameter((3, 3), rng, std=0.02)
    assert p.requires_grad and p.data.shape == (3, 3)
    q = ad.parameter((2,), rng)
    p.grad = np.full((3, 3), 2.0)
    q.grad = np.zeros(2)
    norm = ad.global_grad_norm([p, q])
    assert norm == pytest.approx(6.0, abs=1e-12)  # sqrt(9*4)
