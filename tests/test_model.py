import copy

import numpy as np
import pytest

from cag import tensor as T
from cag.graph import graph_attention
from cag.model import (Model, ModelParams, build_vocab, encode_instance,
                       top_attended)
from conftest import tiny_run_config


@pytest.fixture
def setup(tiny_corpus):
    cfg = tiny_run_config()
    vocab = build_vocab(tiny_corpus["train"])
    params = ModelParams.init(cfg, len(vocab), np.random.default_rng(3))
    encoded = [encode_instance(i, vocab) for i in tiny_corpus["train"]]
    return cfg, vocab, params, encoded


class TestForward:
    def test_logit_shape_and_determinism(self, setup):
        cfg, _, params, encoded = setup
        model = Model(params, cfg)
        a = model.forward(encoded[0]).logits.data
        b = model.forward(encoded[0]).logits.data
        assert a.shape == (1, len(encoded[0].candidate_ids))
        assert np.array_equal(a, b)

    def test_trace_contents(self, setup):
        cfg, _, params, encoded = setup
        model = Model(params, cfg)
        res = model.forward(encoded[0])
        assert len(res.trace.steps) == cfg.steps
        n = encoded[0].features.shape[1]
        for rec in res.trace.steps:
            assert rec.adjacency.shape == (n, n)
            assert rec.neighbors.shape == (n, min(cfg.k_neighbors, n))
            np.testing.assert_allclose(rec.weights.sum(axis=1), 1.0, atol=1e-12)
            assert rec.alpha_q.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.trace.alpha_h.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.trace.alpha_g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dropout_changes_training_forward_only(self, setup):
        cfg, _, params, encoded = setup
        model = Model(params, tiny_run_config(dropout=0.3))
        rng = np.random.default_rng(0)
        a = model.forward(encoded[0], drop_rng=rng).logits.data
        b = model.forward(encoded[0], drop_rng=rng).logits.data
        assert not np.array_equal(a, b)
        c = model.forward(encoded[0]).logits.data
        d = model.forward(encoded[0]).logits.data
        assert np.array_equal(c, d)


class TestAblations:
    def test_no_u_ignores_history_parameters(self, setup):
        cfg, _, params, encoded = setup
        model = Model(params, cfg.with_ablations(["no_u"]))
        before = model.forward(encoded[0]).logits.data.copy()
        params.hist_att_score.data = params.hist_att_score.data + 1.0
        after = model.forward(encoded[0]).logits.data
        assert np.array_equal(before, after)
        params.hist_att_score.data = params.hist_att_score.data - 1.0

    def test_full_model_uses_history_parameters(self, setup):
        cfg, _, params, encoded = setup
        model = Model(params, cfg)
        before = model.forward(encoded[0]).logits.data.copy()
        params.hist_att_score.data = params.hist_att_score.data + 1.0
        after = model.forward(encoded[0]).logits.data
        assert not np.array_equal(before, after)
        params.hist_att_score.data = params.hist_att_score.data - 1.0

    def test_no_q_att_ignores_step_attention(self, setup):
        cfg, _, params, encoded = setup
        model = Model(params, cfg.with_ablations(["no_q_att"]))
        before = model.forward(encoded[0]).logits.data.copy()
        params.step_attention[0].score.data = params.step_attention[0].score.data + 1.0
        after = model.forward(encoded[0]).logits.data
        assert np.array_equal(before, after)
        params.step_attention[0].score.data = params.step_attention[0].score.data - 1.0
        # the shared projection, in contrast, matters
        params.cmd_from_sentence.data = params.cmd_from_sentence.data + 0.5
        bumped = model.forward(encoded[0]).logits.data
        assert not np.array_equal(before, bumped)
        params.cmd_from_sentence.data = params.cmd_from_sentence.data - 0.5

    def test_no_q_att_trace_alpha_is_uniform(self, setup):
        cfg, _, params, encoded = setup
        res = Model(params, cfg.with_ablations(["no_q_att"])).forward(encoded[0])
        m = len(encoded[0].question_ids)
        np.testing.assert_allclose(res.trace.steps[0].alpha_q, np.full(m, 1.0 / m))

    def test_no_infer_skips_all_steps(self, setup):
        cfg, _, params, encoded = setup
        res = Model(params, cfg.with_ablations(["no_infer"])).forward(encoded[0])
        assert res.trace.steps == []

    def test_no_g_att_averages_nodes(self, setup):
        cfg, _, params, encoded = setup
        res = Model(params, cfg.with_ablations(["no_g_att"])).forward(encoded[0])
        n = encoded[0].features.shape[1]
        np.testing.assert_allclose(res.trace.alpha_g, np.full(n, 1.0 / n))

    def test_dualq_variant_changes_output(self, setup):
        cfg, _, params, encoded = setup
        base = Model(params, cfg).forward(encoded[0]).logits.data
        dual_cfg = tiny_run_config(variant="dualq")
        dual = Model(params, dual_cfg).forward(encoded[0]).logits.data
        assert not np.array_equal(base, dual)


class TestParams:
    def test_named_covers_all_and_is_stable(self, setup):
        cfg, vocab, params, _ = setup
        names = [n for n, _ in params.named()]
        assert len(names) == len(set(names))
        assert "embedding" in names and "graph.fusion" in names
        assert f"step_attention.{cfg.steps}.score" in names
        again = ModelParams.init(cfg, len(vocab), np.random.default_rng(3))
        assert [n for n, _ in again.named()] == names

    def test_state_dict_round_trip(self, setup):
        cfg, vocab, params, encoded = setup
        state = params.state_dict()
        other = ModelParams.init(cfg, len(vocab), rng=None)
        other.load_state(state)
        a = Model(params, cfg).forward(encoded[0]).logits.data
        b = Model(other, cfg).forward(encoded[0]).logits.data
        assert np.array_equal(a, b)

    def test_load_state_rejects_wrong_shape(self, setup):
        cfg, vocab, params, _ = setup
        state = params.state_dict()
        state["graph.fusion"] = np.zeros((2, 2))
        other = ModelParams.init(cfg, len(vocab), rng=None)
        with pytest.raises(ValueError, match="graph.fusion"):
            other.load_state(state)

    def test_load_state_rejects_missing_name(self, setup):
        cfg, vocab, params, _ = setup
        state = params.state_dict()
        state.pop("embedding")
        other = ModelParams.init(cfg, len(vocab), rng=None)
        with pytest.raises(ValueError, match="embedding"):
            other.load_state(state)

    @pytest.mark.parametrize("rng", [np.random.default_rng(0), None], ids=["fresh", "shell"])
    def test_feature_dim_mismatch_names_dims(self, rng):
        # d_v has one legal value, the scene feature dimension
        with pytest.raises(ValueError, match="dimension 16, but the config has d_v=5"):
            ModelParams.init(tiny_run_config(d_v=5), 10, rng)

    def test_seed_determines_init(self, setup):
        cfg, vocab, _, _ = setup
        a = ModelParams.init(cfg, len(vocab), np.random.default_rng(5)).state_dict()
        b = ModelParams.init(cfg, len(vocab), np.random.default_rng(5)).state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestEncodeInstance:
    def test_long_sentences_encoded_in_full(self, tiny_corpus):
        # sentences have no length cap: this question used to be cut to 20 ids
        inst = copy.deepcopy(tiny_corpus["train"][0])
        inst.rounds[-1].question[:0] = ["is"] * 30
        inst.caption[:0] = ["a"] * 40
        vocab = build_vocab(tiny_corpus["train"])
        enc = encode_instance(inst, vocab)
        assert enc.question_ids == vocab.encode(inst.current.question)
        assert len(enc.question_ids) == len(inst.current.question) > 30
        assert enc.caption_ids == vocab.encode(inst.caption)
        assert len(enc.caption_ids) > 40
        assert all(0 < i < len(vocab) for i in enc.question_ids + enc.caption_ids)
        assert enc.features.shape[1] == len(inst.scene.objects)

    def test_unknown_tokens_map_to_unk(self, tiny_corpus):
        from cag.encoders import Vocab
        vocab = Vocab(["<pad>", "<unk>", "is"])
        enc = encode_instance(tiny_corpus["train"][0], vocab)
        assert all(i in (vocab.UNK, vocab.token_to_id.get("is")) for i in enc.question_ids)


class TestTraceHelpers:
    def test_last_step_readout_equals_alpha_g(self, setup):
        # the trace re-applies the readout head to each step's nodes; at the
        # last step that is the head the model itself read out with
        cfg, _, params, encoded = setup
        res = Model(params, cfg).forward(encoded[0])
        _, alpha = graph_attention(T.constant(res.trace.steps[-1].nodes_after),
                                   T.constant(res.q_sentence), params.graph)
        assert np.array_equal(alpha.data.reshape(-1), res.trace.alpha_g)

    def test_top_attended_orders_descending_with_low_index_ties(self):
        assert top_attended(np.array([0.1, 0.5, 0.4]), 2) == [1, 2]
        assert top_attended(np.array([0.5, 0.5]), 2) == [0, 1]
        assert top_attended(np.array([1.0]), 2) == [0]
