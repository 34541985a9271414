"""Finite-difference harness tests plus per-primitive gradient verification."""

import numpy as np
import pytest

from cag import tensor as T
from cag.gradcheck import NondeterministicFunction, finite_diff_check
from cag.tensor import Tensor, constant


def leaf(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestHarness:
    def test_quadratic(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        report = finite_diff_check(lambda: T.mul(x, x).sum(), [("x", x)], tol=1e-6)
        assert report.passed
        assert x.grad == pytest.approx(6.0, abs=1e-6)

    def test_softmax_cross_entropy_three_classes(self):
        rng = np.random.default_rng(11)
        logits = leaf(rng, (1, 3))
        report = finite_diff_check(
            lambda: T.softmax_cross_entropy(logits, 1), [("logits", logits)], tol=1e-4
        )
        assert report.passed

    def test_zero_parameter_fn_vacuous_pass(self):
        report = finite_diff_check(lambda: constant(1.0).sum(), [])
        assert report.passed and report.entries == []

    def test_nondeterministic_fn_rejected(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        w = constant(np.arange(9.0).reshape(3, 3))  # distinct weights: any mask change shifts the sum
        with pytest.raises(NondeterministicFunction):
            finite_diff_check(lambda: T.mul(T.dropout(x, 0.5, rng=rng), w).sum(), [("x", x)])

    def test_report_summary_mentions_failures(self):
        x = Tensor(np.array(2.0), requires_grad=True)

        def broken():
            # forward of x^2 but a tape that claims d/dx = 1
            out = T.mul(x, x).sum()
            out._backward = lambda g: T._accum(x, np.asarray(g))
            return out

        report = finite_diff_check(broken, [("x", x)])
        assert not report.passed
        assert "FAIL" in report.summary()


# Every differentiable primitive checked against central differences at
# 1e-6 relative tolerance on random small tensors (double precision).
PRIMITIVE_CASES = {
    "add": lambda a, b: T.add(a, b),
    "mul": lambda a, b: T.mul(a, b),
    "tanh": lambda a, b: T.tanh(a),
    "sigmoid": lambda a, b: T.sigmoid(a),
    "transpose": lambda a, b: T.transpose(a),
    "sum_all": lambda a, b: a.sum(),
    "sum_rows": lambda a, b: T.tensor_sum(a, axis=0),
    "sum_cols": lambda a, b: T.tensor_sum(a, axis=1, keepdims=True),
    "softmax_rows": lambda a, b: T.masked_softmax(a, np.ones(a.shape, dtype=bool), axis=1),
    "l2_normalize_cols": lambda a, b: T.l2_normalize(a, axis=0),
    "concat_rows": lambda a, b: T.concat([a, b], axis=0),
    "concat_cols": lambda a, b: T.concat([a, b], axis=1),
    "take_rows": lambda a, b: T.take_rows(a, 1, 3),
    "take_col": lambda a, b: T.take_col(a, 2),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (3, 4))
    weights = constant(rng.normal(size=PRIMITIVE_CASES[name](a, b).shape))

    def loss():
        return T.mul(PRIMITIVE_CASES[name](a, b), weights).sum()

    report = finite_diff_check(loss, [("a", a), ("b", b)], step=1e-5, tol=1e-6)
    assert report.passed, report.summary()


def test_matmul_gradient():
    rng = np.random.default_rng(5)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (4, 2))
    weights = constant(rng.normal(size=(3, 2)))
    report = finite_diff_check(
        lambda: T.mul(T.matmul(a, b), weights).sum(), [("a", a), ("b", b)], tol=1e-6
    )
    assert report.passed, report.summary()


def test_broadcast_cols_gradient():
    rng = np.random.default_rng(6)
    a = leaf(rng, (4, 1))
    weights = constant(rng.normal(size=(4, 5)))
    report = finite_diff_check(
        lambda: T.mul(T.broadcast_cols(a, 5), weights).sum(), [("a", a)], tol=1e-6
    )
    assert report.passed, report.summary()


def test_masked_softmax_gradient():
    rng = np.random.default_rng(8)
    a = leaf(rng, (3, 5))
    mask = rng.random((3, 5)) < 0.6
    mask[:, 0] = True  # every row keeps at least one entry
    weights = constant(rng.normal(size=(3, 5)))
    report = finite_diff_check(
        lambda: T.mul(T.masked_softmax(a, mask, axis=1), weights).sum(),
        [("a", a)],
        tol=1e-6,
    )
    assert report.passed, report.summary()


def test_embedding_gradient():
    rng = np.random.default_rng(9)
    table = leaf(rng, (6, 3))
    weights = constant(rng.normal(size=(3, 4)))
    report = finite_diff_check(
        lambda: T.mul(T.embedding_cols(table, [2, 0, 5, 2]), weights).sum(),
        [("table", table)],
        tol=1e-6,
    )
    assert report.passed, report.summary()


def test_lstm_sequence_gradient():
    # d=2, d_in=3; m = 1 and 2 are the edges of the w_h term's one-step shift
    for m in (1, 2, 6, 9):
        rng = np.random.default_rng(13)
        seq = leaf(rng, (3, m))
        w_x, w_h, b = leaf(rng, (8, 3)), leaf(rng, (8, 2)), leaf(rng, (8, 1))
        weights = constant(rng.normal(size=(2, m)))
        report = finite_diff_check(
            lambda: T.mul(T.lstm_sequence(seq, w_x, w_h, b), weights).sum(),
            [("seq", seq), ("w_x", w_x), ("w_h", w_h), ("b", b)],
            tol=1e-6,
        )
        assert report.passed, f"m={m}: {report.summary()}"


def test_cross_entropy_gradient():
    rng = np.random.default_rng(10)
    logits = leaf(rng, (1, 6))
    report = finite_diff_check(
        lambda: T.softmax_cross_entropy(logits, 4), [("logits", logits)], tol=1e-6
    )
    assert report.passed, report.summary()


def test_dropout_gradient_with_frozen_mask():
    # fix the mask by reseeding per evaluation so the fn is deterministic
    x = Tensor(np.random.default_rng(1).normal(size=(4, 4)), requires_grad=True)
    weights = constant(np.random.default_rng(2).normal(size=(4, 4)))

    def loss():
        rng = np.random.default_rng(123)
        return T.mul(T.dropout(x, 0.7, rng=rng), weights).sum()

    report = finite_diff_check(loss, [("x", x)], tol=1e-6)
    assert report.passed, report.summary()


def test_diamond_graph_matches_closed_form():
    # y = tanh(x); loss = sum(y * y) + sum(3 * y): dL/dx = (2y + 3) (1 - y^2)
    rng = np.random.default_rng(12)
    x = leaf(rng, (3, 3))
    y = T.tanh(x)
    loss = T.add(T.mul(y, y), T.mul(y, constant(np.full((3, 3), 3.0)))).sum()
    T.backward(loss, params=[x])
    yd = np.tanh(x.data)
    np.testing.assert_allclose(x.grad, (2 * yd + 3) * (1 - yd * yd), rtol=1e-12)
