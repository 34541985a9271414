import numpy as np
import pytest

from cag.synthdial import CorpusManifest, generate_corpus
from cag.training import TrainResult, evaluate, train
from conftest import tiny_run_config


class TestTrain:
    def test_empty_corpus_rejected(self, tiny_corpus):
        with pytest.raises(ValueError, match="the train split is empty"):
            train([], tiny_corpus["val"], tiny_run_config())

    def test_feature_dim_mismatch_names_dims(self, tiny_corpus):
        with pytest.raises(ValueError, match="d_v=5"):
            train(tiny_corpus["train"][:2], [], tiny_run_config(d_v=5))

    def test_tied_val_mrr_keeps_earlier_epoch(self, tiny_corpus):
        # at lr=1e-300 no parameter moves, so every epoch ties on val MRR
        cfg = tiny_run_config(epochs=3, lr=1e-300)
        _, _, result, _ = train(tiny_corpus["train"][:2], tiny_corpus["val"], cfg)
        assert len({row["MRR"] for row in result.log_rows}) == 1
        assert result.best_epoch == 0

    def test_memorizes_single_instance(self, tiny_corpus):
        cfg = tiny_run_config(epochs=50, lr=4e-3, seed=2)
        _, _, result, _ = train(tiny_corpus["train"][:1], [], cfg)
        assert len(result.log_rows) == 50
        assert result.log_rows[-1]["loss"] < result.log_rows[0]["loss"]

    def test_same_seed_gives_identical_loss_curves(self, tiny_corpus):
        cfg = tiny_run_config(epochs=2, seed=5)
        rows = []
        for _ in range(2):
            _, _, result, _ = train(tiny_corpus["train"], tiny_corpus["val"], cfg)
            rows.append(result.log_rows)
        assert rows[0] == rows[1]

    def test_different_seed_changes_curve(self, tiny_corpus):
        a = train(tiny_corpus["train"][:4], [], tiny_run_config(epochs=1, seed=5))[2]
        b = train(tiny_corpus["train"][:4], [], tiny_run_config(epochs=1, seed=6))[2]
        assert a.log_rows != b.log_rows

    def test_zero_epochs_emits_initial_snapshot_with_no_rows(self, tiny_corpus):
        cfg = tiny_run_config(epochs=0)
        model, _, result, _ = train(tiny_corpus["train"], tiny_corpus["val"], cfg)
        assert result.log_rows == [] and result.best_epoch is None
        assert result.best_params is not None
        current = model.params.state_dict()
        assert all(np.array_equal(result.best_params[k], current[k]) for k in current)

    def test_log_rows_carry_metrics_and_lr(self, tiny_corpus):
        cfg = tiny_run_config(epochs=1, seed=3)
        _, _, result, _ = train(tiny_corpus["train"], tiny_corpus["val"], cfg)
        row = result.log_rows[0]
        assert set(row) == {"epoch", "loss", "skipped_steps", "MRR", "R@1", "R@5",
                            "R@10", "Mean", "lr"}
        assert row["lr"] == cfg.lr and row["skipped_steps"] == 0

    def test_skipped_steps_counts_rejected_updates(self, tiny_corpus, monkeypatch):
        from cag import tensor as T

        backward, calls = T.backward, []

        def poisoned(loss, params):
            backward(loss, params)
            calls.append(None)
            if len(calls) == 2:  # one non-finite gradient, in the first epoch
                params[0].grad[0, 0] = np.nan

        monkeypatch.setattr(T, "backward", poisoned)
        _, optim, result, _ = train(tiny_corpus["train"][:3], [], tiny_run_config(epochs=2))
        assert [row["skipped_steps"] for row in result.log_rows] == [1, 0]
        assert optim.step_count == 2 * 3 - 1

    def test_best_snapshot_tracks_val_mrr(self, tiny_corpus):
        cfg = tiny_run_config(epochs=3, seed=4)
        _, _, result, _ = train(tiny_corpus["train"], tiny_corpus["val"], cfg)
        best = max(r["MRR"] for r in result.log_rows)
        assert result.best_mrr == best
        assert result.log_rows[result.best_epoch]["MRR"] == best

    def test_without_val_split_snapshot_is_final_epoch(self, tiny_corpus):
        cfg = tiny_run_config(epochs=2, seed=9)
        model, optim, result, _ = train(tiny_corpus["train"], [], cfg)
        assert result.best_epoch == 1 and result.best_mrr == float("-inf")
        current = model.params.state_dict()
        assert all(np.array_equal(result.best_params[k], current[k]) for k in current)
        assert result.best_optim.epoch == 1
        # one Adam step per training dialog
        assert result.best_optim.step_count == optim.step_count == 2 * len(tiny_corpus["train"])


class TestEvaluate:
    def test_deterministic_and_rank_bounds(self, tiny_setup):
        cfg, _, model, encoded = tiny_setup
        a, logits_a = evaluate(model, encoded["val"], collect_logits=True)
        b, logits_b = evaluate(model, encoded["val"], collect_logits=True)
        assert a == b
        assert all(np.array_equal(x, y) for x, y in zip(logits_a, logits_b))
        assert a.r_at_1 <= a.r_at_5 <= a.r_at_10
        assert 1.0 <= a.mean_rank <= 6.0  # C=6 in the tiny corpus

    def test_candidate_cache_does_not_change_results(self, tiny_setup):
        from cag import tensor as T
        from cag.decoder import rank_of
        cfg, _, model, encoded = tiny_setup
        with T.no_grad():
            plain = [model.forward(e).logits.data.copy() for e in encoded["val"]]
        report, cached = evaluate(model, encoded["val"], collect_logits=True)
        for x, y in zip(plain, cached):
            np.testing.assert_array_equal(x.reshape(-1), y)
