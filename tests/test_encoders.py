import itertools

import numpy as np
import pytest

from cag import tensor as T
from cag.encoders import (
    LSTMParams,
    StepAttentionParams,
    Vocab,
    encode_history,
    encode_question,
    history_attention,
    lstm_encode,
    question_command,
)
from cag.gradcheck import finite_diff_check
from cag.tensor import Tensor, constant


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_encode(seq, params):
    """The LSTM as a composition of tape primitives, one node per op: the
    oracle the fused ``lstm_encode`` must match (bit for bit at m = 1)."""
    d = params.w_h.data.shape[1]
    m = seq.data.shape[1]
    h = T.constant(np.zeros((d, 1)))
    c = T.constant(np.zeros((d, 1)))
    cols = []
    for t in range(m):
        x = T.take_col(seq, t)
        pre = params.w_x @ x + params.w_h @ h + params.b
        i = T.sigmoid(T.take_rows(pre, 0, d))
        f = T.sigmoid(T.take_rows(pre, d, 2 * d))
        g = T.tanh(T.take_rows(pre, 2 * d, 3 * d))
        o = T.sigmoid(T.take_rows(pre, 3 * d, 4 * d))
        c = f * c + i * g
        h = o * T.tanh(c)
        cols.append(h)
    return T.concat(cols, axis=1) if m > 1 else cols[0]


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab.build([["a", "b"], ["b"]])
        assert v.PAD == 0 and v.UNK == 1
        assert v.id_to_token[0] == "<pad>"

    def test_bijective_over_non_reserved(self):
        v = Vocab.build([["red", "dog", "red"]])
        for tok in v.id_to_token[2:]:
            assert v.id_to_token[v.token_to_id[tok]] == tok


class TestLSTM:
    def test_zero_weights_zero_input_gives_zero_states(self):
        d = 4
        p = LSTMParams(
            w_x=constant(np.zeros((4 * d, 3))),
            w_h=constant(np.zeros((4 * d, d))),
            b=constant(np.zeros((4 * d, 1))),
        )
        out = lstm_encode(constant(np.zeros((3, 5))), p)
        np.testing.assert_array_equal(out.data, np.zeros((d, 5)))

    def test_single_step_matches_gate_equations(self):
        rng = np.random.default_rng(1)
        d, d_in = 3, 2
        p = LSTMParams.init(d_in, d, rng)
        x = rng.normal(size=(d_in, 1))
        out = lstm_encode(constant(x), p)

        pre = p.w_x.data @ x + p.b.data  # h0 = 0
        i = np_sigmoid(pre[0:d])
        f = np_sigmoid(pre[d : 2 * d])
        g = np.tanh(pre[2 * d : 3 * d])
        o = np_sigmoid(pre[3 * d : 4 * d])
        c = i * g
        h = o * np.tanh(c)
        np.testing.assert_allclose(out.data, h, rtol=1e-12)

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(2)
        p = LSTMParams.init(3, 4, rng)
        for m in (1, 2, 7):
            assert lstm_encode(constant(rng.normal(size=(3, m))), p).data.shape == (4, m)

    def test_one_tape_node_per_run(self):
        rng = np.random.default_rng(18)
        p = LSTMParams.init(2, 3, rng)
        seq = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = lstm_encode(seq, p)
        assert out.requires_grad and out._parents == (seq, p.w_x, p.w_h, p.b)
        with T.no_grad():
            out = lstm_encode(seq, p)
        assert not out.requires_grad and out._backward is None

    def test_nonconforming_shapes_rejected(self):
        rng = np.random.default_rng(19)
        p = LSTMParams.init(2, 3, rng)
        with pytest.raises(T.ShapeError):
            lstm_encode(constant(np.zeros((2, 0))), p)
        with pytest.raises(T.ShapeError):
            lstm_encode(constant(np.zeros((3, 4))), p)

    def test_gradient_two_step_d4(self):
        rng = np.random.default_rng(4)
        p = LSTMParams.init(3, 4, rng)
        seq = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        weights = constant(rng.normal(size=(4, 2)))

        def loss():
            return T.mul(lstm_encode(seq, p), weights).sum()

        report = finite_diff_check(
            loss, [("seq", seq)] + list(p.named("lstm")), step=1e-5, tol=1e-4
        )
        assert report.passed, report.summary()


class TestFusedMatchesPerOpReference:
    """``lstm_encode`` (one fused tape node) against the per-op oracle. At
    m = 1 the outputs and every gradient are compared with ``np.array_equal``
    and byte for byte, so that a -0.0/+0.0 change shows too. From m = 2 on
    the fused run forms its products once per sequence, which sums in another
    order, so each array must match to within 1e-12 of its largest entry.
    Each encoder's tape-on and tape-off outputs are byte-equal at every
    length."""

    # (d, d_in): a small width, and the benchmark's d=64, d_w=32
    WIDTHS = [(5, 4), (64, 32)]

    @staticmethod
    def _run(encode, build, leaves, seeds):
        """Outputs with the tape on and off, and the gradients of ``leaves``
        plus those of the sequences fed to the encoder. Each leaf's ``.grad``
        starts as its seed (None, or an array the backward adds onto)."""
        for leaf, seed in zip(leaves, seeds):
            leaf.grad = None if seed is None else seed.copy()
        held = [leaf.grad for leaf in leaves]
        loss, outs, seqs = build(encode)
        T.backward(loss)
        for before, seed in zip(held, seeds):
            # the gradient array held before backward is replaced, not written
            assert seed is None or np.array_equal(before, seed)
        with T.no_grad():
            _, outs_nograd, _ = build(encode)
        grads = [None if t.grad is None else t.grad.copy() for t in leaves + seqs]
        return [o.data for o in outs], [o.data for o in outs_nograd], grads

    @staticmethod
    def _same(a, b):
        return np.array_equal(a, b) and a.tobytes() == b.tobytes()

    @staticmethod
    def _close(a, b):
        """``a`` equals ``b`` to within 1e-12 of ``b``'s largest entry."""
        return a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def _assert_same(self, build, leaves, seeds=None, exact=False):
        """Compare with the oracle byte for byte if ``exact``, else to 1e-12."""
        seeds = seeds or [None] * len(leaves)
        match = self._same if exact else self._close
        fwd, fwd_ng, grads = self._run(lstm_encode, build, leaves, seeds)
        ref, ref_ng, ref_grads = self._run(reference_lstm_encode, build, leaves, seeds)
        for a, b, c, e in zip(fwd, fwd_ng, ref, ref_ng):
            assert self._same(a, b) and self._same(c, e) and match(a, c)
        assert len(grads) == len(ref_grads)
        for g, r in zip(grads, ref_grads):
            assert (g is None) == (r is None)
            if g is not None:
                assert match(g, r)

    @pytest.mark.parametrize("m", [1, 2, 6, 9, 13])
    def test_single_call(self, m):
        for (d, d_in), seeded in itertools.product(self.WIDTHS, (False, True)):
            rng = np.random.default_rng(m)
            p = LSTMParams.init(d_in, d, rng)
            seq = Tensor(rng.normal(size=(d_in, m)), requires_grad=True)
            weights = constant(rng.normal(size=(d, m)))
            leaves = [seq, p.w_x, p.w_h, p.b]
            # a shared parameter's .grad already holds other consumers' terms
            seeds = [None] + [rng.normal(size=t.data.shape) if seeded else None
                              for t in leaves[1:]]

            def build(encode):
                out = encode(seq, p)
                # seq is also read directly, as question.word_embs is
                return T.mul(out, weights).sum() + T.mul(seq, seq).sum(), [out], []

            self._assert_same(build, leaves, seeds, exact=m == 1)

    @pytest.mark.parametrize("m", [1, 9])
    def test_sequence_without_gradient(self, m):
        d, d_in = self.WIDTHS[1]
        rng = np.random.default_rng(60 + m)
        p = LSTMParams.init(d_in, d, rng)
        seq = constant(rng.normal(size=(d_in, m)))
        weights = constant(rng.normal(size=(d, m)))
        leaves = [p.w_x, p.w_h, p.b]

        def build(encode):
            out = encode(seq, p)
            return T.mul(out, weights).sum(), [out], []

        self._assert_same(build, leaves, exact=m == 1)
        assert seq.grad is None

    def test_shared_parameters_and_second_consumer(self):
        # three runs share one LSTM and feed one loss; the first sequence is
        # also read directly, as question.word_embs is by the word attention
        for d, d_in in self.WIDTHS:
            rng = np.random.default_rng(41)
            p = LSTMParams.init(d_in, d, rng)
            table = Tensor(rng.normal(size=(9, d_in)), requires_grad=True)
            streams = [[3, 5, 2, 1], [2, 4, 4, 7, 1, 8, 3, 6, 5], [6]]
            alpha = constant(rng.normal(size=(1, 4)))
            w_q = constant(rng.normal(size=(d, 4)))
            leaves = [table, p.w_x, p.w_h, p.b]

            def build(encode):
                seqs = [T.embedding_cols(table, ids) for ids in streams]
                outs, cols = [], []
                for embs in seqs:
                    outs.append(encode(embs, p))
                    cols.append(T.take_col(outs[-1], outs[-1].data.shape[1] - 1))
                direct = seqs[0] @ T.transpose(alpha)
                loss = (T.concat(cols, axis=1).sum() + T.mul(outs[0], w_q).sum()
                        + T.mul(direct, direct).sum())
                return loss, outs, seqs

            self._assert_same(build, leaves)


class TestHistoryAttention:
    @staticmethod
    def _params(rng, d):
        s = 1.0 / np.sqrt(d)
        return (
            T.parameter((d, d), rng, s),
            T.parameter((d, d), rng, s),
            T.parameter((1, d), rng, s),
        )

    def test_single_round_attention_is_one(self):
        rng = np.random.default_rng(5)
        d = 4
        w_q, w_h, p_s = self._params(rng, d)
        hist = constant(rng.normal(size=(d, 1)))
        u, alpha = history_attention(constant(rng.normal(size=(d, 1))), hist, w_q, w_h, p_s)
        np.testing.assert_allclose(alpha.data, [[1.0]])
        np.testing.assert_allclose(u.data, hist.data)

    def test_identical_columns_give_that_column(self):
        rng = np.random.default_rng(6)
        d = 4
        w_q, w_h, p_s = self._params(rng, d)
        col = rng.normal(size=(d, 1))
        hist = constant(np.repeat(col, 3, axis=1))
        u, _ = history_attention(constant(rng.normal(size=(d, 1))), hist, w_q, w_h, p_s)
        np.testing.assert_allclose(u.data, col, rtol=1e-12)

    def test_two_rounds_match_direct_evaluation(self):
        rng = np.random.default_rng(7)
        d = 3
        w_q, w_h, p_s = self._params(rng, d)
        q = rng.normal(size=(d, 1))
        H = rng.normal(size=(d, 2))
        u, alpha = history_attention(constant(q), constant(H), w_q, w_h, p_s)

        z = np.tanh(w_q.data @ q @ np.ones((1, 2)) + w_h.data @ H)
        scores = p_s.data @ z
        e = np.exp(scores - scores.max())
        a = e / e.sum()
        np.testing.assert_allclose(alpha.data, a, rtol=1e-12)
        np.testing.assert_allclose(u.data, H @ a.T, rtol=1e-12)

    def test_alpha_is_simplex(self):
        rng = np.random.default_rng(8)
        d = 5
        w_q, w_h, p_s = self._params(rng, d)
        for ell in (1, 2, 6):
            hist = constant(rng.normal(size=(d, ell)))
            _, alpha = history_attention(constant(rng.normal(size=(d, 1))), hist, w_q, w_h, p_s)
            assert alpha.data.sum() == pytest.approx(1.0, abs=1e-12)
            assert (alpha.data >= 0).all()


def make_question(rng, d, d_w, m):
    table = Tensor(rng.uniform(-0.08, 0.08, size=(10, d_w)), requires_grad=True)
    ids = list(rng.integers(2, 10, size=m))
    lstm = LSTMParams.init(d_w, d, rng)
    return encode_question(ids, table, lstm), table, lstm


class TestQuestionCommand:
    def test_single_word_returns_its_embedding(self):
        rng = np.random.default_rng(9)
        q, _, _ = make_question(rng, d=4, d_w=3, m=1)
        cmd = question_command(q, StepAttentionParams.init(4, rng))
        np.testing.assert_allclose(cmd.alpha.data, [[1.0]])
        np.testing.assert_allclose(cmd.vector.data, q.word_embs.data, rtol=1e-12)

    def test_identical_words_split_attention_evenly(self):
        rng = np.random.default_rng(10)
        d, d_w = 4, 3
        table = Tensor(rng.uniform(-0.08, 0.08, size=(6, d_w)), requires_grad=True)
        q = encode_question([3, 3], table, LSTMParams.init(d_w, d, rng))
        # identical embeddings but distinct hidden states; force symmetric hiddens
        q.hiddens = T.broadcast_cols(T.take_col(q.hiddens, 0), 2)
        cmd = question_command(q, StepAttentionParams.init(d, rng))
        np.testing.assert_allclose(cmd.alpha.data, [[0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(cmd.vector.data, table.data[3][:, None], rtol=1e-12)

    def test_three_words_match_direct_evaluation(self):
        rng = np.random.default_rng(11)
        d, d_w, m = 5, 4, 3
        q, _, _ = make_question(rng, d, d_w, m)
        sp = StepAttentionParams.init(d, rng)
        cmd = question_command(q, sp)

        U = q.hiddens.data
        gated = np.tanh(sp.gate_tanh.data @ U) * np_sigmoid(sp.gate_sig.data @ U)
        z = gated / np.sqrt((gated * gated).sum(axis=0, keepdims=True) + 1e-12)
        s = sp.score.data @ z
        e = np.exp(s - s.max())
        a = e / e.sum()
        np.testing.assert_allclose(cmd.alpha.data, a, rtol=1e-10)
        np.testing.assert_allclose(cmd.vector.data, q.word_embs.data @ a.T, rtol=1e-10)

    def test_per_step_parameters_are_independent(self):
        rng = np.random.default_rng(14)
        q, _, _ = make_question(rng, d=4, d_w=3, m=3)
        steps = [StepAttentionParams.init(4, rng) for _ in range(2)]
        before = question_command(q, steps[0]).vector.data.copy()
        # perturbing step-2 parameters must leave the step-1 command bitwise intact
        steps[1].score.data += 0.5
        after = question_command(q, steps[0]).vector.data
        assert np.array_equal(before, after)
        cmd2a = question_command(q, steps[1]).vector.data.copy()
        steps[1].score.data += 0.5
        cmd2b = question_command(q, steps[1]).vector.data
        assert not np.array_equal(cmd2a, cmd2b)


class TestEncodeHistory:
    def test_caption_round_always_present(self):
        rng = np.random.default_rng(15)
        table = Tensor(rng.uniform(-0.08, 0.08, size=(10, 3)), requires_grad=True)
        lstm = LSTMParams.init(3, 4, rng)
        hist = encode_history([[2, 3]], table, lstm)
        assert hist.data.shape == (4, 1)
        with pytest.raises(ValueError):
            encode_history([], table, lstm)

    def test_round_vector_is_last_state(self):
        rng = np.random.default_rng(16)
        table = Tensor(rng.uniform(-0.08, 0.08, size=(10, 3)), requires_grad=True)
        lstm = LSTMParams.init(3, 4, rng)
        ids = [2, 5, 7]
        hist = encode_history([ids], table, lstm)
        hid = lstm_encode(T.embedding_cols(table, ids), lstm)
        np.testing.assert_array_equal(hist.data[:, 0], hid.data[:, 2])
