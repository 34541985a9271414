"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two learning
criteria train real models (several minutes combined); everything else is
seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import cag.model
from cag import tensor as T
from cag.checkpoint import build_model, load_checkpoint, save_checkpoint
from cag.cli import main
from cag.config import RunConfig
from cag.decoder import metrics_from_ranks, npair_loss, rank_metrics
from cag.encoders import QuestionCommand
from cag.gradcheck import finite_diff_check
from cag.graph import (GraphParams, adjacency, fuse, graph_attention,
                       init_graph, iterate, message_passing, select_neighbors,
                       update_nodes)
from cag.model import Model, ModelParams, build_vocab, encode_instance
from cag.synthdial import (CorpusManifest, generate_corpus, generate_dialog,
                           generate_scene)
from cag.tensor import constant, topk_indices
from cag.training import evaluate, train
from conftest import tiny_run_config, write_config


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {tag}: FAIL")
        raise
    print(f"\nACCEPTANCE {tag}: PASS")


# --- shared setups ---------------------------------------------------------


def tiny_preset_instance():
    """n=5 objects, m=4 question tokens, 2 history rounds (caption makes
    the third history column), C=4 candidates."""
    rng = np.random.default_rng([555, 2])
    scene = generate_scene(rng, 5)
    inst = generate_dialog(scene, rng, rounds=3, n_candidates=4, dialog_id=0)
    assert len(inst.current.question) == 4
    assert len(inst.history) == 2
    assert len(scene.objects) == 5
    assert len(inst.candidates) == 4
    return inst


def tiny_preset_model(inst, seed=42):
    cfg = RunConfig(d=8, d_w=6, d_v=16, k_neighbors=2, steps=2, dropout=0.0, seed=1)
    vocab = build_vocab([inst])
    params = ModelParams.init(cfg, len(vocab), np.random.default_rng(seed))
    return Model(params, cfg), encode_instance(inst, vocab)


LEARN_CONFIG = dict(d=64, d_w=32, d_v=16, k_neighbors=4, steps=3,
                    lr=4e-4, dropout=0.3, epochs=10)


@pytest.fixture(scope="session")
def learn_corpus():
    manifest = CorpusManifest(seed=101, splits={"train": 500, "val": 100, "test": 0},
                              n_objects=6, rounds=4, candidates=10)
    return generate_corpus(manifest)


@pytest.fixture(scope="session")
def trainer(learn_corpus):
    cache = {}

    def run(seed: int, ablations=()):
        key = (seed, tuple(sorted(ablations)))
        if key not in cache:
            cfg = RunConfig(seed=seed, ablations=sorted(ablations), **LEARN_CONFIG)
            start = time.monotonic()
            _, _, result, _ = train(learn_corpus["train"], learn_corpus["val"], cfg)
            cache[key] = (result, time.monotonic() - start)
        return cache[key]

    return run


# --- criteria --------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    with criterion("01 gradient-correctness"):
        inst = tiny_preset_instance()
        model, enc = tiny_preset_model(inst)

        def loss():
            return npair_loss(model.forward(enc).logits, enc.gt)

        start = time.monotonic()
        report = finite_diff_check(loss, model.params.named(), step=1e-5, tol=1e-4)
        elapsed = time.monotonic() - start
        assert report.passed, report.summary()
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_02_topk_oracle():
    with criterion("02 topk-oracle"):
        rng = np.random.default_rng(2024)
        for case in range(1000):
            n = int(rng.integers(1, 20))
            row = rng.normal(size=n)
            dup = int(rng.integers(0, n))
            row[dup] = row[int(rng.integers(0, n))]  # inject a duplicate value
            k = int(rng.integers(1, n + 1))
            expected = sorted(sorted(range(n), key=lambda i: (-row[i], i))[:k])
            np.testing.assert_array_equal(topk_indices(row, k), expected,
                                          err_msg=f"case {case}")


def forward_with_fused(model, enc):
    """``model.forward(enc)`` plus the fused multimodal embedding it scored
    the candidates against, read from the ``fuse`` call."""
    seen = []

    def recording_fuse(*args):
        out = fuse(*args)
        seen.append(out.data)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cag.model, "fuse", recording_fuse)
        result = model.forward(enc)
    (fused,) = seen
    return result, fused


def test_criterion_03_permutation_equivariance():
    with criterion("03 permutation-equivariance"):
        inst = tiny_preset_instance()
        model, enc = tiny_preset_model(inst)
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            feats = rng.normal(size=enc.features.shape)
            base_enc = type(enc)(enc.dialog_id, feats, enc.caption_ids,
                                 enc.round_ids, enc.question_ids,
                                 enc.candidate_ids, enc.gt)
            base, base_fused = forward_with_fused(model, base_enc)
            if any(np.unique(r.adjacency).size != r.adjacency.size
                   for r in base.trace.steps):
                continue  # needs all-distinct adjacency values
            n = feats.shape[1]
            perm = rng.permutation(n)
            inv = np.empty(n, dtype=int)
            inv[perm] = np.arange(n)
            perm_enc = type(enc)(enc.dialog_id, feats[:, perm], enc.caption_ids,
                                 enc.round_ids, enc.question_ids,
                                 enc.candidate_ids, enc.gt)
            other, other_fused = forward_with_fused(model, perm_enc)
            for rb, rp in zip(base.trace.steps, other.trace.steps):
                np.testing.assert_allclose(
                    rp.adjacency, rb.adjacency[np.ix_(perm, perm)], atol=1e-9)
                for i in range(n):
                    np.testing.assert_array_equal(
                        rp.neighbors[i], np.sort(inv[rb.neighbors[perm[i]]]))
            np.testing.assert_allclose(other_fused, base_fused, atol=1e-9)
            checked += 1


def test_criterion_04_degenerate_k_equals_dense_attention():
    with criterion("04 degenerate-k-dense"):
        d, d_w = 6, 4
        rng = np.random.default_rng(404)
        for case in range(100):
            n = int(rng.integers(2, 8))
            params = GraphParams.init(d, d_w, rng)
            state = init_graph(constant(rng.normal(size=(d, n))),
                               constant(rng.normal(size=(d, 1))))
            cmd = constant(rng.normal(size=(d_w, 1)))
            adj = adjacency(state.nodes, cmd, params)
            neighbors = select_neighbors(adj.data, n)
            _, _, messages = message_passing(state.nodes, adj, neighbors, cmd, params)

            A = adj.data
            dense = np.exp(A - A.max(axis=1, keepdims=True))
            dense /= dense.sum(axis=1, keepdims=True)
            per_node = (params.msg_node_proj.data @ state.nodes.data) * (
                params.msg_cmd_gate.data @ cmd.data)
            expected = per_node @ dense.T
            assert np.abs(messages.data - expected).max() < 1e-10, f"case {case}"


def test_criterion_05_visual_immutability():
    with criterion("05 visual-immutability"):
        # iterate() itself has no check: update_nodes concatenates a copy of
        # the visual half back, so verify from outside that the recorded
        # states of 100 random forward passes stay bitwise equal
        inst = tiny_preset_instance()
        model, enc = tiny_preset_model(inst)
        rng = np.random.default_rng(55)
        d = model.cfg.d
        for _ in range(100):
            feats = rng.normal(size=enc.features.shape)
            case = type(enc)(enc.dialog_id, feats, enc.caption_ids, enc.round_ids,
                             enc.question_ids, enc.candidate_ids, enc.gt)
            res = model.forward(case)
            expected = np.tanh(model.params.visual_proj.data @ feats
                               + model.params.visual_bias.data)
            for rec in res.trace.steps:
                assert np.array_equal(rec.nodes_after[:d], expected)


def test_criterion_06_parameter_regime():
    with criterion("06 parameter-regime"):
        inst = tiny_preset_instance()
        model, enc = tiny_preset_model(inst)
        params = model.params
        base = model.forward(enc).trace.steps
        fields = ("alpha_q", "adjacency", "neighbors", "weights", "messages")

        # perturbing the step-2 word-attention score touches step 2 only
        params.step_attention[1].score.data += 1e-3
        bumped = model.forward(enc).trace.steps
        params.step_attention[1].score.data -= 1e-3
        for f in fields:
            assert np.array_equal(getattr(base[0], f), getattr(bumped[0], f)), (
                f"step-1 {f} changed under a step-2 perturbation")
        assert not np.array_equal(base[1].alpha_q, bumped[1].alpha_q)
        assert not np.array_equal(base[1].messages, bumped[1].messages)

        # the shared message projection touches every step
        params.graph.msg_node_proj.data += 1e-3
        shared = model.forward(enc).trace.steps
        params.graph.msg_node_proj.data -= 1e-3
        for t in range(2):
            assert not np.array_equal(base[t].messages, shared[t].messages), (
                f"step-{t + 1} messages ignored a shared-weight perturbation")


def test_criterion_07_compositionality():
    with criterion("07 compositionality"):
        d, d_w, n = 6, 4, 5
        rng = np.random.default_rng(700)
        params = GraphParams.init(d, d_w, rng)
        visual = constant(rng.normal(size=(d, n)))
        context = constant(rng.normal(size=(d, 1)))
        vecs = {t: constant(rng.normal(size=(d_w, 1))) for t in (1, 2)}
        commands = lambda t: QuestionCommand(constant(np.ones((1, 1))), vecs[t])
        flags = RunConfig(k_neighbors=2, steps=2)

        full, _ = iterate(visual, context, commands, params, flags)

        half, _ = iterate(visual, context, commands, params,
                          RunConfig(k_neighbors=2, steps=1))
        cmd = commands(2)
        adj = adjacency(half.nodes, cmd.vector, params)
        neighbors = select_neighbors(adj.data, 2)
        _, _, messages = message_passing(half.nodes, adj, neighbors, cmd.vector, params)
        manual = update_nodes(half, messages, params)

        assert np.array_equal(full.nodes.data, manual.nodes.data)
        assert full.step == manual.step == 3


def test_criterion_10_metric_unit_suite():
    with criterion("10 metric-unit-suite"):
        perfect = rank_metrics([np.array([5.0, 1.0, 0.5])], [0])
        assert (perfect.mean_rank, perfect.mrr, perfect.r_at_1) == (1.0, 1.0, 1.0)

        third = rank_metrics([np.array([5.0, 4.0, 3.0, 2.0, 1.0])], [2])
        assert third.mean_rank == 3.0
        assert third.mrr == pytest.approx(1 / 3, abs=1e-15)
        assert (third.r_at_1, third.r_at_5) == (0.0, 1.0)

        pair = metrics_from_ranks([1, 4])
        assert pair.mrr == pytest.approx(0.625, abs=1e-15)
        assert pair.mean_rank == pytest.approx(2.5, abs=1e-15)


def test_criterion_11_determinism_and_persistence(tmp_path, corpus_dir, tiny_corpus):
    with criterion("11 determinism-persistence"):
        cfg_path = write_config(tmp_path / "config.json",
                                tiny_run_config(epochs=2, seed=19))
        logs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", cfg_path, "--corpus", str(corpus_dir),
                         "--out", str(out)]) == 0
            logs.append((out / "metrics.jsonl").read_bytes())
        assert logs[0] == logs[1], "training logs are not byte-identical"

        ckpt_path = tmp_path / "a" / "best.ckpt"
        ckpt = load_checkpoint(ckpt_path)
        model = build_model(ckpt)
        encoded = [encode_instance(i, ckpt.vocab) for i in tiny_corpus["val"]]
        before, logits_before = evaluate(model, encoded, collect_logits=True)

        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, ckpt.params_state, ckpt.optim, ckpt.vocab, ckpt.config)
        model2 = build_model(load_checkpoint(resaved))
        after, logits_after = evaluate(model2, encoded, collect_logits=True)
        assert before == after
        assert all(np.array_equal(a, b)
                   for a, b in zip(logits_before, logits_after)), (
            "round-tripped checkpoint changed eval bits")


def test_criterion_12_random_baseline_sanity(learn_corpus):
    with criterion("12 random-baseline"):
        cfg = RunConfig(seed=99, **LEARN_CONFIG)
        vocab = build_vocab(learn_corpus["train"])
        params = ModelParams.init(cfg, len(vocab), np.random.default_rng([99, 0]))
        model = Model(params, cfg)
        encoded = [encode_instance(i, vocab) for i in learn_corpus["train"]]
        assert len(encoded) >= 500
        report, _ = evaluate(model, encoded)
        expected = sum(1.0 / r for r in range(1, 11)) / 10  # 0.29289...
        assert abs(report.mrr - expected) <= 0.05, (
            f"untrained MRR {report.mrr:.4f} vs harmonic baseline {expected:.4f}")


def test_criterion_08_toy_task_learning(trainer):
    with criterion("08 toy-task-learning"):
        result, elapsed = trainer(13)
        assert elapsed < 300.0, f"training took {elapsed:.0f}s"
        best = result.log_rows[result.best_epoch]
        assert best["MRR"] >= 0.45, f"val MRR {best['MRR']:.4f} < 0.45"
        assert best["R@1"] >= 0.30, f"val R@1 {best['R@1']:.4f} < 0.30"


def test_criterion_09_ablation_direction(trainer):
    with criterion("09 ablation-direction"):
        seeds = (13, 17, 23)
        means = {}
        for name, ablations in (("full", ()), ("no_infer", ("no_infer",)),
                                ("no_u", ("no_u",))):
            scores = [trainer(s, ablations)[0].best_mrr for s in seeds]
            means[name] = float(np.mean(scores))
        print(f"\nmean val MRR over seeds {seeds}: {means}")
        assert means["full"] >= means["no_infer"], means
        assert means["full"] >= means["no_u"], means
