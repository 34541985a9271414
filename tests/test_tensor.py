import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cag.tensor import (
    ShapeError,
    Tensor,
    add,
    backward,
    broadcast_cols,
    concat,
    constant,
    dropout,
    embedding_cols,
    l2_normalize,
    masked_softmax,
    matmul,
    mul,
    no_grad,
    sigmoid,
    softmax_cross_entropy,
    take_col,
    take_rows,
    tanh,
    tensor_sum,
    topk_indices,
    transpose,
    zero_grad,
)


def softmax(a, axis):
    """The plain softmax: masked_softmax with every position kept."""
    return masked_softmax(a, np.ones(a.shape, dtype=bool), axis=axis)


def brute_force_topk(row, k):
    """Full stable sort oracle: value descending, index ascending on ties."""
    k = min(k, len(row))
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))
    return sorted(order[:k])


class TestPrimitives:
    def test_matmul_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out = matmul(constant(np.eye(3)), constant(x))
        np.testing.assert_array_equal(out.data, x)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))

    def test_hadamard(self):
        out = mul(constant([1.0, 2.0, 3.0]), constant([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(out.data, [4.0, 10.0, 18.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            add(constant([1.0, 2.0]), constant([1.0, 2.0, 3.0]))

    def test_broadcast_column_against_ones_row(self):
        out = broadcast_cols(constant([[1.0], [2.0]]), 3)
        np.testing.assert_array_equal(out.data, [[1, 1, 1], [2, 2, 2]])

    def test_concat_and_slices_roundtrip(self):
        a = constant(np.arange(6.0).reshape(2, 3))
        b = constant(np.arange(6.0, 12.0).reshape(2, 3))
        cat = concat([a, b], axis=0)
        np.testing.assert_array_equal(take_rows(cat, 0, 2).data, a.data)
        np.testing.assert_array_equal(take_rows(cat, 2, 4).data, b.data)
        np.testing.assert_array_equal(take_col(cat, 1).data, cat.data[:, 1:2])

    def test_dropout_keep_all_is_identity(self):
        x = constant(np.ones((4, 4)))
        assert dropout(x, 1.0) is x

    def test_dropout_train_masks_and_rescales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)), requires_grad=True)
        y = dropout(x, 0.7, rng=rng)
        kept = y.data != 0.0
        np.testing.assert_allclose(y.data[kept], 1.0 / 0.7)
        assert 0.6 < kept.mean() < 0.8

    def test_dropout_rejects_bad_keep_prob(self):
        with pytest.raises(ValueError):
            dropout(constant([1.0]), 0.0, rng=np.random.default_rng(0))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(constant([0.0, 0.0]), axis=0).data, [0.5, 0.5])

    def test_known_row(self):
        # direct exp/sum evaluation of [1, 2, 3]
        e = np.exp(np.array([1.0, 2.0, 3.0]))
        expected = e / e.sum()
        out = softmax(constant([1.0, 2.0, 3.0]), axis=0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=5e-6)

    def test_rows_sum_to_one_and_shift_invariant_1000_rows(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            row = rng.normal(scale=10.0, size=(1, n))
            y = softmax(constant(row), axis=1).data
            assert abs(y.sum() - 1.0) <= 1e-12
            shifted = softmax(constant(row + rng.normal()), axis=1).data
            np.testing.assert_allclose(y, shifted, atol=1e-12)

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            softmax(constant(np.zeros((0,))), axis=0)

    def test_masked_softmax_zeroes_masked_positions(self):
        mask = np.array([[True, False, True]])
        y = masked_softmax(constant([[1.0, 100.0, 1.0]]), mask, axis=1)
        np.testing.assert_allclose(y.data, [[0.5, 0.0, 0.5]])

    def test_masked_softmax_rejects_all_masked_slice(self):
        with pytest.raises(ValueError):
            masked_softmax(constant([[1.0, 2.0]]), np.array([[False, False]]), axis=1)


class TestTopK:
    def test_basic(self):
        np.testing.assert_array_equal(topk_indices(np.array([3.0, 1.0, 2.0]), 2), [0, 2])

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(topk_indices(np.array([5.0, 5.0, 1.0]), 1), [0])

    def test_full_selection(self):
        np.testing.assert_array_equal(topk_indices(np.arange(5.0), 5), np.arange(5))

    def test_clamps_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            out = topk_indices(np.array([1.0, 2.0]), 8)
        np.testing.assert_array_equal(out, [0, 1])
        assert "clamping" in caplog.text

    def test_agrees_with_brute_force_on_1000_rows_with_duplicates(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 16))
            # low-cardinality values force duplicates
            row = rng.integers(0, 4, size=n).astype(float)
            k = int(rng.integers(1, n + 1))
            np.testing.assert_array_equal(
                topk_indices(row, k), brute_force_topk(list(row), k)
            )

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10), st.integers(1, 10))
    def test_matches_oracle_hypothesis(self, values, k):
        row = np.array(values, dtype=float)
        np.testing.assert_array_equal(
            topk_indices(row, min(k, len(values))),
            brute_force_topk(values, min(k, len(values))),
        )


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(constant([3.0, 4.0]), axis=0).data, [0.6, 0.8])

    def test_zero_vector_guarded(self):
        np.testing.assert_array_equal(l2_normalize(constant([0.0, 0.0]), axis=0).data, [0.0, 0.0])

    def test_unit_vector_fixed_point(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(l2_normalize(constant(v), axis=0).data, v, atol=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_output_has_unit_norm_or_zero(self, values):
        x = np.array(values)
        y = l2_normalize(constant(x), axis=0).data
        norm = np.linalg.norm(y)
        if np.linalg.norm(x) > 0.1:
            # epsilon guard shaves ~eps/(2*|x|^2) off the unit norm
            assert norm == pytest.approx(1.0, abs=1e-9)
        else:
            assert norm <= 1.0 + 1e-9


class TestBackward:
    def test_linear_map_gradient(self):
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        x = constant(np.array([[5.0], [6.0]]))
        loss = tensor_sum(matmul(w, x))
        backward(loss, params=[w])
        # d/dW sum(Wx) broadcasts x^T across rows
        np.testing.assert_array_equal(w.grad, np.array([[5.0, 6.0], [5.0, 6.0]]))

    def test_stationary_point_of_tanh_squared(self):
        w = Tensor(np.zeros(()), requires_grad=True)
        y = tanh(w)
        loss = mul(y, y).sum()
        backward(loss, params=[w])
        assert w.grad == pytest.approx(0.0)

    def test_diamond_graph_accumulates_additively(self):
        # loss = (x*x) + (3x) has gradient 2x + 3
        x = Tensor(np.array(2.0), requires_grad=True)
        loss = add(mul(x, x), mul(x, constant(3.0))).sum()
        backward(loss, params=[x])
        assert x.grad == pytest.approx(2 * 2.0 + 3.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x)

    def test_unreachable_param_reads_zero(self):
        used = Tensor(np.array(1.5), requires_grad=True)
        unused = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = mul(used, used).sum()
        backward(loss, params=[used, unused])
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_grads_accumulate_across_passes_until_zeroed(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        for _ in range(2):
            backward(mul(x, constant(2.0)).sum())
        assert x.grad == pytest.approx(4.0)
        zero_grad([x])
        assert x.grad == pytest.approx(0.0)

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = tanh(x)
        assert y._backward is None and not y.requires_grad


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(constant(np.zeros((1, 4))), 0)
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_saturation(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 20.0
        assert softmax_cross_entropy(constant(logits), 2).item() < 1e-8

    def test_derived_row(self):
        # direct evaluation: -log softmax([1,2,3])[2]
        e = np.exp(np.array([1.0, 2.0, 3.0]))
        expected = -np.log(e[2] / e.sum())
        loss = softmax_cross_entropy(constant([[1.0, 2.0, 3.0]]), 2)
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert loss.item() == pytest.approx(0.40761, abs=5e-6)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(constant([[0.0, 1.0]]), 2)


class TestEmbeddingCols:
    def test_one_hot_table(self):
        table = constant(np.eye(4))
        out = embedding_cols(table, [2, 1])
        np.testing.assert_array_equal(out.data, np.eye(4)[:, [2, 1]])

    def test_matches_row_lookup_oracle(self):
        rng = np.random.default_rng(3)
        table = constant(rng.normal(size=(8, 5)))
        ids = [3, 1, 7, 3]
        out = embedding_cols(table, ids)
        for j, i in enumerate(ids):
            np.testing.assert_array_equal(out.data[:, j], table.data[i])

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            embedding_cols(constant(np.zeros((4, 2))), [4])

    def test_repeated_ids_accumulate_gradient(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = embedding_cols(table, [2, 2])
        backward(out.sum(), params=[table])
        np.testing.assert_array_equal(table.grad[2], [2.0, 2.0])
        np.testing.assert_array_equal(table.grad[[0, 1, 3]], np.zeros((3, 2)))


class TestTransposeSumScale:
    def test_transpose(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(transpose(constant(x)).data, x.T)

    def test_axis_sums(self):
        x = constant(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(tensor_sum(x, axis=0).data, [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(tensor_sum(x, axis=1, keepdims=True).data, [[3.0], [12.0]])

    def test_sigmoid_matches_closed_form(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(sigmoid(constant(x)).data, 1 / (1 + np.exp(-x)), rtol=1e-12)
