import dataclasses
import hashlib
import json
import os
import re
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cag.checkpoint import (CheckpointError, build_model, load_checkpoint,
                            save_checkpoint)
from cag.cli import main
from cag.config import RunConfig, atomic_open
from cag.model import ModelParams, build_vocab, encode_instance
from cag.synthdial import CorpusManifest
from cag.training import evaluate, train
from conftest import replace_one_field, tiny_run_config, write_config, write_manifest


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def with_scene(line, edit):
    """A corpus line with ``edit`` applied to its scene."""
    return with_line(line, lambda data: edit(data["scene"]))


def with_line(line, edit):
    """A corpus line with ``edit`` applied to its parsed object."""
    data = json.loads(line)
    edit(data)
    return json.dumps(data)


def copy_corpus(src, dst):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir, tiny_corpus):
    """One real `cag train` run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_run_config(epochs=2, seed=8)
    cfg_path = write_config(out / "config.json", cfg)
    rc = main(["train", "--config", cfg_path, "--corpus", str(corpus_dir),
               "--out", str(out)])
    assert rc == 0
    return out, cfg


class TestGen:
    def test_writes_splits_and_prints_summary(self, tmp_path, capsys):
        manifest = CorpusManifest(seed=31, splits={"train": 5, "val": 2, "test": 1},
                                  n_objects=4, rounds=3, candidates=6)
        mpath = write_manifest(tmp_path / "manifest.json", manifest)
        rc = main(["gen", "--manifest", mpath, "--out", str(tmp_path / "corpus")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 8 dialogs" in out and "final-question mix" in out
        lines = (tmp_path / "corpus" / "train.jsonl").read_text().splitlines()
        assert len(lines) == 5

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        manifest = CorpusManifest(seed=32, splits={"train": 2, "val": 0, "test": 0},
                                  n_objects=4, rounds=2, candidates=4)
        mpath = write_manifest(tmp_path / "m.json", manifest)
        out = str(tmp_path / "c")
        assert main(["gen", "--manifest", mpath, "--out", out]) == 0
        assert main(["gen", "--manifest", mpath, "--out", out]) == 2
        assert "refusing" in capsys.readouterr().err
        assert main(["gen", "--manifest", mpath, "--out", out, "--force"]) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = CorpusManifest(seed=33, splits={"train": 6, "val": 2, "test": 2},
                                  n_objects=4, rounds=3, candidates=6)
        mpath = write_manifest(tmp_path / "m.json", manifest)
        hashes = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["gen", "--manifest", mpath, "--out", str(out)]) == 0
            hashes.append(tuple(file_hash(out / f"{s}.jsonl")
                                for s in ("train", "val", "test")))
        assert hashes[0] == hashes[1]

    def test_split_ids_disjoint(self, tmp_path):
        manifest = CorpusManifest(seed=34, splits={"train": 4, "val": 3, "test": 2},
                                  n_objects=4, rounds=2, candidates=4)
        mpath = write_manifest(tmp_path / "m.json", manifest)
        out = tmp_path / "c"
        main(["gen", "--manifest", mpath, "--out", str(out)])
        ids = {}
        for split in ("train", "val", "test"):
            ids[split] = {json.loads(l)["id"]
                          for l in (out / f"{split}.jsonl").read_text().splitlines()}
        assert not (ids["train"] & ids["val"]) and not (ids["val"] & ids["test"])


class TestTrainCommand:
    def test_outputs_exist_with_expected_rows(self, trained):
        out, cfg = trained
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == cfg.epochs
        assert list(rows[0]) == ["epoch", "loss", "skipped_steps", "MRR", "R@1", "R@5",
                                 "R@10", "Mean", "lr"]
        assert all(row["skipped_steps"] == 0 for row in rows)
        assert (out / "best.ckpt").exists()

    def test_identical_config_gives_identical_bytes(self, tmp_path, corpus_dir):
        cfg = tiny_run_config(epochs=1, seed=12)
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_path = write_config(tmp_path / f"{name}.json", cfg)
            assert main(["train", "--config", cfg_path, "--corpus", str(corpus_dir),
                         "--out", str(out)]) == 0
            digests.append((file_hash(out / "metrics.jsonl"), file_hash(out / "best.ckpt")))
        assert digests[0] == digests[1]

    def test_zero_epochs_emits_checkpoint_and_empty_log(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path / "c.json", tiny_run_config(epochs=0))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--corpus", str(corpus_dir),
                     "--out", str(out)]) == 0
        assert (out / "metrics.jsonl").read_text() == ""
        load_checkpoint(out / "best.ckpt")

    def test_lr_halves_at_epoch_ten(self, tmp_path, corpus_dir, tiny_corpus):
        # 11 epochs on a 2-instance corpus keeps this quick
        cfg = tiny_run_config(epochs=11, seed=1, lr=4e-4)
        _, _, result, _ = train(tiny_corpus["train"][:2], [], cfg)
        assert result.log_rows[9]["lr"] == pytest.approx(4e-4)
        assert result.log_rows[10]["lr"] == pytest.approx(2e-4)

    def test_cag_seed_env_is_ignored(self, tmp_path, corpus_dir, monkeypatch):
        # the config file is the only source of the seed
        cfg_path = write_config(tmp_path / "c.json", tiny_run_config(epochs=1, seed=1))

        def run(name):
            out = tmp_path / name
            assert main(["train", "--config", cfg_path, "--corpus", str(corpus_dir),
                         "--out", str(out)]) == 0
            return file_hash(out / "metrics.jsonl"), file_hash(out / "best.ckpt")

        monkeypatch.setenv("CAG_SEED", "77")
        with_env = run("env")
        monkeypatch.delenv("CAG_SEED")
        assert run("plain") == with_env

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_nonpositive_accum_rounds_rejected(self, tmp_path, corpus_dir, capsys, rounds):
        # accum_rounds is no longer a config field: any value is refused as unknown
        cfg = tiny_run_config().to_dict()
        cfg["accum_rounds"] = rounds
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cfg_path), "--corpus", str(corpus_dir),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {cfg_path}: unknown config fields: ['accum_rounds']"]
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_without_val_split_reports_final_epoch(self, tmp_path, corpus_dir, capsys):
        no_val = tmp_path / "corpus"
        no_val.mkdir()
        for name in ("train.jsonl", "manifest.json"):
            (no_val / name).write_bytes((corpus_dir / name).read_bytes())
        cfg_path = write_config(tmp_path / "c.json", tiny_run_config(epochs=2))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--corpus", str(no_val),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == f"no val split: {out / 'best.ckpt'} holds the final epoch 1"
        assert not any("MRR" in line for line in printed)
        assert load_checkpoint(out / "best.ckpt").optim.epoch == 1

    def test_empty_train_split_named(self, tmp_path, corpus_dir, capsys):
        empty = copy_corpus(corpus_dir, tmp_path / "corpus")
        (empty / "train.jsonl").write_text("")
        cfg_path = write_config(tmp_path / "c.json", tiny_run_config())
        rc = main(["train", "--config", cfg_path, "--corpus", str(empty),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {empty / 'train.jsonl'}: the split is empty"]
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_pad_token_in_train_split_named(self, tmp_path, corpus_dir, capsys):
        # used to reach the vocab and fail as "vocab tokens must be unique"
        bad = copy_corpus(corpus_dir, tmp_path / "corpus")
        lines = (bad / "train.jsonl").read_text().splitlines()
        lines[1] = with_line(lines[1], lambda d: d["question"].insert(0, "<pad>"))
        (bad / "train.jsonl").write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path / "c.json", tiny_run_config())
        rc = main(["train", "--config", cfg_path, "--corpus", str(bad),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {bad / 'train.jsonl'}:2: token '<pad>': a token is a string "
            "other than '<pad>' and '<unk>'"]
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_dim_mismatch_rejected(self, tmp_path, corpus_dir, capsys):
        cfg_path = write_config(tmp_path / "c.json", tiny_run_config(d_v=9))
        rc = main(["train", "--config", cfg_path, "--corpus", str(corpus_dir),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "d_v" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,expected", [
        ("d", "64", "int"),
        ("steps", 2.5, "int"),
        ("k_neighbors", True, "int"),
        ("lr", True, "float"),
        ("lr", "4e-4", "float"),
        ("variant", 1, "str"),
        ("ablations", "no_u", "list[str]"),
        ("ablations", ["no_u", 3], "list[str]"),
    ])
    def test_config_field_types_checked(self, tmp_path, corpus_dir, capsys,
                                        field, value, expected):
        cfg = tiny_run_config().to_dict()
        cfg[field] = value
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cfg_path), "--corpus", str(corpus_dir),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {cfg_path}: config field {field!r} must be {expected}, got {value!r}"]
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,text,expected", [
    ("train", "5", "{path}: expected a JSON object, got int"),
    ("gen", "5", "{path}: expected a JSON object, got int"),
    ("train", '{"d": 64,\n', "{path}: Expecting property name"),
    ("gen", '{"seed": 1,\n', "{path}: Expecting property name"),
    ("gen", "[1, 2]", "{path}: expected a JSON object, got list"),
    ("gen", '{"bogus": 2}', "{path}: unknown manifest fields: ['bogus']"),
    ("gen", '{"rounds": "4"}', "{path}: manifest field 'rounds' must be int, got '4'"),
    ("gen", '{"splits": {"train": 2.5}}',
     "{path}: manifest field 'splits' must be dict[str, int], got {'train': 2.5}"),
    ("gen", '{"splits": {"train": -1}}',
     "{path}: manifest field 'splits' must map 'train', 'val' or 'test' to a "
     "count >= 0, got 'train': -1"),
    ("gen", '{"splits": {"dev": 3}}',
     "{path}: manifest field 'splits' must map 'train', 'val' or 'test' to a "
     "count >= 0, got 'dev': 3"),
    ("gen", '{"n_objects": 100}',
     "{path}: manifest field 'n_objects' must be in [3, 16], got 100"),
    ("gen", '{"n_objects": 2}',
     "{path}: manifest field 'n_objects' must be in [3, 16], got 2"),
    ("gen", '{"grid": 0}', "{path}: manifest field 'grid' must be >= 1, got 0"),
    ("gen", '{"seed": -5}', "{path}: manifest field 'seed' must be >= 0, got -5"),
    ("gen", '{"splits": {"train": 0, "val": 0, "test": 0}, "rounds": 50}',
     "{path}: manifest field 'rounds' must be in [2, 10], got 50"),
    ("gen", '{"splits": {"train": 0, "val": 0, "test": 0}, "candidates": 99}',
     "{path}: manifest field 'candidates' must be in [2, 20], got 99"),
    ("gen", '{"categories": ["dog"]}', "{path}: unknown manifest fields: ['categories']"),
    # three objects cannot carry a ten-round pronoun chain for every dialog
    ("gen", '{"n_objects": 3, "rounds": 10, "splits": {"train": 300}}',
     "{path}: dialog 24: no unambiguous pronoun chain found in 100 attempts "
     "(n_objects=3, rounds=10)"),
    ("train", None, "[Errno 21] Is a directory: '{path}'"),
    # fields RunConfig no longer has
    ("train", '{"accum_rounds": 1, "vocab_min_count": 1}',
     "{path}: unknown config fields: ['accum_rounds', 'vocab_min_count']"),
    ("train", '{"epochs": -1}', "{path}: config field 'epochs' must be >= 0, got -1"),
    ("train", '{"seed": -2}', "{path}: config field 'seed' must be >= 0, got -2"),
    ("train", '{"steps": -1}', "{path}: config field 'steps' must be >= 0, got -1"),
    ("train", '{"d": 0}', "{path}: config field 'd' must be >= 1, got 0"),
    ("train", '{"k_neighbors": 0}', "{path}: config field 'k_neighbors' must be >= 1, got 0"),
    ("train", '{"lr": 0}', "{path}: config field 'lr' must be finite and > 0, got 0"),
    ("train", '{"lr": -0.001}',
     "{path}: config field 'lr' must be finite and > 0, got -0.001"),
    ("train", '{"lr": NaN}', "{path}: config field 'lr' must be finite and > 0, got nan"),
    ("train", '{"lr": Infinity}', "{path}: config field 'lr' must be finite and > 0, got inf"),
    ("train", '{"dropout": 1.0}',
     "{path}: config field 'dropout' must be in [0, 1), got 1.0"),
    ("train", '{"variant": "x"}',
     "{path}: config field 'variant' must be one of ('cag', 'dualq'), got 'x'"),
    ("train", '{"ablations": ["no_u", "bogus"]}',
     "{path}: config field 'ablations' must be among ('no_infer', 'no_u', 'no_q_att', "
     "'no_g_att'), got ['no_u', 'bogus']"),
    # the command line names the corpus; a config file cannot
    ("train", '{"corpus_dir": "/somewhere/else"}',
     "{path}: unknown config fields: ['corpus_dir']"),
], ids=["config-not-object", "manifest-not-object", "config-truncated",
        "manifest-truncated", "manifest-list", "manifest-unknown-field",
        "manifest-str-rounds", "manifest-float-split", "manifest-negative-split",
        "manifest-unknown-split", "manifest-too-many-objects",
        "manifest-too-few-objects", "manifest-zero-grid", "manifest-negative-seed",
        "manifest-too-many-rounds", "manifest-too-many-candidates",
        "manifest-removed-field", "generation-fails", "config-is-directory",
        "config-removed-fields", "config-negative-epochs", "config-negative-seed",
        "config-negative-steps", "config-zero-d", "config-zero-k", "config-zero-lr",
        "config-negative-lr", "config-nan-lr", "config-infinite-lr", "config-dropout-one",
        "config-unknown-variant", "config-unknown-ablation", "config-corpus-dir"])
def test_malformed_input_file_rejected(tmp_path, corpus_dir, capsys, command, text,
                                       expected):
    # every fault names the file, and a field-level fault the field too;
    # text None makes the input path a directory
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(path), "--corpus", str(corpus_dir)]
    else:
        argv = ["gen", "--manifest", str(path)]
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    errors = [l for l in err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: " + expected.replace("{path}", str(path)))
    assert "Traceback" not in err
    assert not out.exists()


class TestEvalCommand:
    def test_report_fields_and_determinism(self, trained, corpus_dir, capsys):
        out, _ = trained
        reports = []
        for _ in range(2):
            assert main(["eval", "--ckpt", str(out / "best.ckpt"), "--split", "val",
                         "--corpus", str(corpus_dir)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        doc = json.loads(reports[0])
        assert set(doc) == {"Mean", "MRR", "R@1", "R@5", "R@10", "instances"}
        assert doc["R@10"] == 1.0  # C=6 candidates, every rank is within 10

    def test_ablate_flag_is_applied(self, trained, corpus_dir, tmp_path, tiny_corpus):
        # ranks can coincide on a tiny split, so compare raw logits via trace
        out, _ = trained
        dialog_id = tiny_corpus["val"][0].dialog_id
        base, ablated = tmp_path / "base.json", tmp_path / "ablated.json"
        assert main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                     "--dialog", str(dialog_id), "--out", str(base)]) == 0
        assert main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                     "--dialog", str(dialog_id), "--out", str(ablated),
                     "--ablate", "no_g_att,no_u"]) == 0
        a = json.loads(base.read_text())
        b = json.loads(ablated.read_text())
        assert a["logits"] != b["logits"]
        n = len(tiny_corpus["val"][0].scene.objects)
        assert b["alpha_g"] == [1.0 / n] * n
        assert b["alpha_h"] is None
        # no_infer reaches the step count the trace export checks against
        no_infer = tmp_path / "no_infer.json"
        assert main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                     "--dialog", str(dialog_id), "--out", str(no_infer),
                     "--ablate", "no_infer"]) == 0
        c = json.loads(no_infer.read_text())
        assert a["steps"] and c["steps"] == []
        assert a["logits"] != c["logits"]

    @pytest.mark.parametrize("command", ["eval", "trace"])
    @pytest.mark.parametrize("ablate", ["bogus", "no_u,", "no_u,bogus"])
    def test_unknown_ablation_names_the_flag(self, trained, corpus_dir, tiny_corpus,
                                             tmp_path, capsys, command, ablate):
        out, _ = trained
        argv = {"eval": ["--split", "val"],
                "trace": ["--dialog", str(tiny_corpus["val"][0].dialog_id),
                          "--out", str(tmp_path / "trace.json")]}[command]
        rc = main([command, "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                   "--ablate", ablate] + argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            "error: --ablate: must be among ('no_infer', 'no_u', 'no_q_att', 'no_g_att'), "
            f"got {ablate!r}"]
        assert "Traceback" not in err
        assert not (tmp_path / "trace.json").exists()

    def test_empty_split_named(self, trained, corpus_dir, tmp_path, capsys):
        out, _ = trained
        empty = copy_corpus(corpus_dir, tmp_path / "corpus")
        (empty / "train.jsonl").write_text("")
        rc = main(["eval", "--ckpt", str(out / "best.ckpt"), "--split", "train",
                   "--corpus", str(empty)])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {empty / 'train.jsonl'}: the split is empty"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_checkpoint_dims_checked_against_corpus(self, corpus_dir, tiny_corpus, tmp_path,
                                                    capsys, command):
        # a checkpoint whose d_v the scene features do not have; ModelParams.init
        # refuses d_v=9, so its visual.proj is reshaped by hand
        cfg = tiny_run_config()
        vocab = build_vocab(tiny_corpus["train"])
        state = ModelParams.init(cfg, len(vocab), np.random.default_rng(0)).state_dict()
        state["visual.proj"] = state["visual.proj"][:, :9]
        ckpt = tmp_path / "d_v9.ckpt"
        save_checkpoint(ckpt, state, None, vocab, dataclasses.replace(cfg, d_v=9))
        argv = {"eval": ["--split", "val"],
                "trace": ["--dialog", str(tiny_corpus["val"][0].dialog_id),
                          "--out", str(tmp_path / "trace.json")]}[command]
        rc = main([command, "--ckpt", str(ckpt), "--corpus", str(corpus_dir)] + argv)
        err = capsys.readouterr().err
        assert rc == 2
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: checkpoint {ckpt}: ") and "d_v=9" in errors[0]
        assert "Traceback" not in err
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize("mutate,expected", [
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "gt"}),
         "missing field 'gt'"),
        (lambda line: json.dumps({**json.loads(line), "gt": 9}), "gt 9 outside [0, 6)"),
        (lambda line: json.dumps({**json.loads(line), "gt": -1}), "gt -1 outside [0, 6)"),
        (lambda line: json.dumps({**json.loads(line), "gt": 6}), "gt 6 outside [0, 6)"),
        (lambda line: line[: len(line) // 2], "line 1 column"),
        (lambda line: line[: line.index(",") + 1], "line 1 column"),
        (lambda line: with_scene(line, lambda s: s["objects"][0].update(cat="unicorn")),
         "scene object 0 {'cat': 'unicorn', "),
        (lambda line: with_scene(line, lambda s: s["objects"][1].update(color="teal")),
         "'color': 'teal', 'size': "),
        (lambda line: with_scene(line, lambda s: s["objects"][0].update(size=3)),
         "'size': 3}"),
        (lambda line: with_scene(line, lambda s: s.update(objects=[])),
         "scene has no objects"),
        (lambda line: with_scene(line, lambda s: s["objects"][0].update(cell=[1])),
         "'cell': [1], 'color': "),
        (lambda line: with_scene(line, lambda s: s["objects"][2].update(cell=[0, True])),
         "needs a known cat, color and size and a cell of two integers in [0, 4)"),
        (lambda line: with_scene(line, lambda s: s["objects"][0].update(cell=[0, 4])),
         "'cell': [0, 4], 'color': "),
        (lambda line: with_scene(line, lambda s: s.update(grid="4")),
         "scene grid '4' is not an integer >= 1"),
        # token lists: a string used to load as one token per character
        (lambda line: with_line(line, lambda d: d.update(question=" ".join(d["question"]))),
         "token list 'what color is he': caption, question and history questions need "
         "one or more tokens"),
        (lambda line: with_line(line, lambda d: d["candidates"].__setitem__(0, "yellowzz")),
         "token list 'yellowzz': "),
        (lambda line: with_line(line, lambda d: d["candidates"][0].append("red")),
         "token list ['yellow', 'red']: "),
        (lambda line: with_line(line, lambda d: d["history"][0][1].append("big")),
         "token list ['big', 'big']: "),
        (lambda line: with_line(line, lambda d: d.update(caption=[])), "token list []: "),
        (lambda line: with_line(line, lambda d: d.update(question=[])), "token list []: "),
        (lambda line: with_line(line, lambda d: d["question"].insert(0, "<pad>")),
         "token '<pad>': a token is a string other than '<pad>' and '<unk>'"),
        (lambda line: with_line(line, lambda d: d["caption"].__setitem__(1, "<unk>")),
         "token '<unk>': "),
        (lambda line: with_line(line, lambda d: d["question"].__setitem__(0, ["what"])),
         "token ['what']: a token is a string"),
        # used to fail in validation as "dialog 13: needs at least 2 candidates"
        (lambda line: with_line(line, lambda d: d.update(
            candidates=[d["candidates"][d["gt"]]], gt=0)),
         "a dialog needs at least 2 candidates, got 1"),
        # the dialog id is a non-negative integer, unique within its split
        (lambda line: with_line(line, lambda d: d.update(id=None)),
         "dialog id None is not an integer >= 0"),
        (lambda line: with_line(line, lambda d: d.update(id=1.5)), "dialog id 1.5 is not"),
        (lambda line: with_line(line, lambda d: d.update(id=-1)), "dialog id -1 is not"),
        (lambda line: with_line(line, lambda d: d.update(id="<pad>")),
         "dialog id '<pad>' is not"),
        (lambda line: with_line(line, lambda d: d.update(id=True)), "dialog id True is not"),
        # the split's ids are consecutive, so this takes the first line's id
        (lambda line: with_line(line, lambda d: d.update(id=d["id"] - 1)),
         "dialog id 12 is already used on line 1"),
    ], ids=["no_gt", "gt_too_large", "gt_negative", "gt_one_past_end", "truncated_json",
            "cut_after_comma", "unknown_cat", "unknown_color", "unknown_size", "no_objects", "short_cell",
            "bool_cell", "cell_off_grid", "str_grid", "str_question", "str_candidate",
            "two_token_candidate", "two_token_history_answer", "empty_caption",
            "empty_question", "pad_in_question", "unk_in_caption", "list_token",
            "one_candidate", "null_id", "float_id", "negative_id", "str_id", "bool_id",
            "duplicate_id"])
    def test_malformed_corpus_line_named(self, trained, corpus_dir, tmp_path, capsys,
                                         mutate, expected):
        out, _ = trained
        bad = copy_corpus(corpus_dir, tmp_path / "corpus")
        lines = (bad / "val.jsonl").read_text().splitlines()
        lines[1] = mutate(lines[1])
        (bad / "val.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--ckpt", str(out / "best.ckpt"), "--split", "val",
                   "--corpus", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {bad / 'val.jsonl'}:2: ")
        assert expected in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,name", [("eval", "graph.fusion"),
                                              ("trace", "visual.proj")],
                             ids=["eval", "trace"])
    def test_non_finite_parameter_refused(self, trained, corpus_dir, tmp_path, tiny_corpus,
                                          capsys, command, name):
        # a NaN in graph.fusion used to evaluate with exit 0 to "MRR": Infinity;
        # one in visual.proj used to end the trace in a traceback
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        ckpt.params_state[name][0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, ckpt.params_state, ckpt.optim, ckpt.vocab, ckpt.config)
        argv = {"eval": ["--split", "val"],
                "trace": ["--dialog", str(tiny_corpus["val"][0].dialog_id),
                          "--out", str(tmp_path / "trace.json")]}[command]
        rc = main([command, "--ckpt", str(bad), "--corpus", str(corpus_dir)] + argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: checkpoint {bad}: parameter {name!r} holds a non-finite value"]
        assert "Traceback" not in err
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_corpus_flag_required(self, trained, tmp_path, capsys, command):
        out, _ = trained
        argv = {"eval": ["--split", "val"],
                "trace": ["--dialog", "0", "--out", str(tmp_path / "trace.json")]}[command]
        with pytest.raises(SystemExit) as info:
            main([command, "--ckpt", str(out / "best.ckpt")] + argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --corpus" in err
        assert "Traceback" not in err

    def test_eval_after_roundtrip_matches_in_memory(self, trained, corpus_dir, tiny_corpus):
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        model = build_model(ckpt)
        encoded = [encode_instance(i, ckpt.vocab) for i in tiny_corpus["val"]]
        first, logits_a = evaluate(model, encoded, collect_logits=True)

        model2 = build_model(load_checkpoint(out / "best.ckpt"))
        second, logits_b = evaluate(model2, encoded, collect_logits=True)
        assert first == second
        assert all(np.array_equal(a, b) for a, b in zip(logits_a, logits_b))


BAD_PARAMS = "metadata field 'params' is not a list of distinct [name, shape] pairs"


class TestCheckpointFile:
    def test_truncated_file_rejected(self, trained, tmp_path):
        out, _ = trained
        blob = (out / "best.ckpt").read_bytes()
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(bad)

    # version 1 is the format before RunConfig lost out_dir, version 2 the
    # one that still stored the Adam moments, version 3 the one with named
    # array records; retraining is their migration
    @pytest.mark.parametrize("version", [1, 2, 3, 99])
    def test_version_checked(self, trained, tmp_path, version):
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        # rebuild the container with another version field
        import cag.checkpoint as C
        orig = C.FORMAT_VERSION
        C.FORMAT_VERSION = version
        try:
            bad = tmp_path / f"v{version}.ckpt"
            save_checkpoint(bad, ckpt.params_state, ckpt.optim, ckpt.vocab, ckpt.config)
        finally:
            C.FORMAT_VERSION = orig
        with pytest.raises(CheckpointError, match=rf"format version {version} "
                                                  rf"unsupported \(expected {orig}\)"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit,expected", [
        (lambda meta: meta["config"].update(out_dir=""), "unknown config fields: ['out_dir']"),
        (lambda meta: meta["config"].update(accum_rounds=1, vocab_min_count=1,
                                            corpus_dir="corp"),
         "unknown config fields: ['accum_rounds', 'corpus_dir', 'vocab_min_count']"),
        (lambda meta: meta.pop("config"), "metadata lacks field 'config'"),
        (lambda meta: meta.pop("vocab"), "metadata lacks field 'vocab'"),
        (lambda meta: meta.pop("optim"), "metadata lacks field 'optim'"),
        (lambda meta: meta["optim"].pop("epoch"), "metadata lacks field 'epoch'"),
        (lambda meta: meta.pop("params"), "metadata lacks field 'params'"),
        (lambda meta: meta.update(params={}), BAD_PARAMS),
        (lambda meta: meta["params"].__setitem__(0, "embedding"), BAD_PARAMS),
        (lambda meta: meta["params"][0].append(1), BAD_PARAMS),
        (lambda meta: meta["params"][0].__setitem__(0, 7), BAD_PARAMS),
        (lambda meta: meta["params"][0][1].__setitem__(0, -1), BAD_PARAMS),
        (lambda meta: meta["params"][0][1].__setitem__(0, 2.0), BAD_PARAMS),
        (lambda meta: meta["params"][0][1].__setitem__(0, True), BAD_PARAMS),
        (lambda meta: meta["params"][1].__setitem__(0, meta["params"][0][0]), BAD_PARAMS),
    ], ids=["stored-out_dir", "stored-removed-fields", "no-config", "no-vocab", "no-optim",
            "no-optim-epoch", "no-params", "params-not-list", "entry-not-pair", "entry-too-long",
            "name-not-str", "negative-dim", "float-dim", "bool-dim", "duplicate-name"])
    def test_bad_metadata_names_file(self, trained, tmp_path, edit, expected):
        bad = self.with_edited_metadata(trained, tmp_path, edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(bad)
        assert str(info.value) == f"checkpoint {bad}: {expected}"

    def test_repeated_vocab_token_named(self, trained, corpus_dir, tmp_path, capsys):
        # only a stored vocab can repeat a token: a built one comes from a set
        bad = self.with_edited_metadata(
            trained, tmp_path, lambda meta: meta["vocab"].__setitem__(3, meta["vocab"][2]))
        rc = main(["eval", "--ckpt", str(bad), "--split", "val", "--corpus", str(corpus_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: checkpoint {bad}: vocab tokens must be unique"]
        assert "Traceback" not in err

    @staticmethod
    def with_edited_metadata(trained, tmp_path, edit):
        """Rebuild a current-version container around edited metadata."""
        import cag.checkpoint as C
        out, _ = trained
        body = (out / "best.ckpt").read_bytes()[:-32]
        head = len(C.MAGIC) + 4
        (meta_len,) = struct.unpack("<Q", body[head:head + 8])
        meta = json.loads(body[head + 8:head + 8 + meta_len])
        edit(meta)
        meta_b = json.dumps(meta, sort_keys=True).encode()
        body = (body[:head] + struct.pack("<Q", len(meta_b)) + meta_b
                + body[head + 8 + meta_len:])
        bad = tmp_path / "bad_meta.ckpt"
        bad.write_bytes(body + hashlib.sha256(body).digest())
        return bad

    @pytest.mark.parametrize("edit,expected", [
        (lambda meta: meta["params"][0][1].__setitem__(0, meta["params"][0][1][0] + 1),
         "overrun"),
        (lambda meta: meta["params"].pop(), "underfill"),
    ], ids=["overrun", "underfill"])
    def test_arrays_must_fill_the_body(self, trained, tmp_path, edit, expected):
        bad = self.with_edited_metadata(trained, tmp_path, edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(bad)
        found = re.fullmatch(rf"checkpoint {re.escape(str(bad))}: the arrays take (\d+) "
                             r"bytes, but (\d+) follow the metadata", str(info.value))
        assert found, str(info.value)
        need, have = map(int, found.groups())
        assert (need > have) == (expected == "overrun")

    def test_tampered_config_hash_rejected(self, trained, tmp_path, monkeypatch):
        # write a container whose stored hash lies about the stored config
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        from cag.config import RunConfig
        monkeypatch.setattr(RunConfig, "config_hash", lambda self: "0" * 64)
        bad = tmp_path / "tampered.ckpt"
        save_checkpoint(bad, ckpt.params_state, ckpt.optim, ckpt.vocab, ckpt.config)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(bad)

    def test_flipped_payload_byte_rejected(self, trained, tmp_path):
        out, _ = trained
        blob = bytearray((out / "best.ckpt").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bitflip.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(bad)

    def test_mismatched_dimension_named_on_load(self, trained, tmp_path):
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        wrong = dataclasses.replace(ckpt.config, d=ckpt.config.d * 2)
        bad = tmp_path / "wrong_d.ckpt"
        save_checkpoint(bad, ckpt.params_state, ckpt.optim, ckpt.vocab, wrong)
        with pytest.raises(CheckpointError, match=r"d=24"):
            build_model(load_checkpoint(bad))

    def test_optimizer_state_round_trips(self, trained, tmp_path):
        # the file holds no Adam moments; the schedule scalars survive a
        # save/load cycle
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        body = (out / "best.ckpt").read_bytes()
        assert b"adam_" not in body
        assert ckpt.optim is not None
        assert ckpt.optim.step_count > 0
        assert ckpt.optim.m == {} and ckpt.optim.v == {}
        ckpt.optim.epoch = 7
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, ckpt.params_state, ckpt.optim, ckpt.vocab, ckpt.config)
        back = load_checkpoint(again).optim
        assert (back.base_lr, back.step_count, back.epoch) == (
            ckpt.optim.base_lr, ckpt.optim.step_count, 7)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestBoundaryFileFuzz:
    """A config or manifest with one field replaced, and a checkpoint with one
    byte flipped or cut: each either loads or raises the error that ``main``
    prints as one ``error:`` line, never another exception."""

    @pytest.mark.parametrize("cls,record", [
        (RunConfig, tiny_run_config(ablations=["no_u"]).to_dict()),
        (CorpusManifest, CorpusManifest().to_dict()),
    ], ids=["config", "manifest"])
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_record_loads_or_fails_named(self, fuzz_dir, cls, record, data):
        record = json.loads(json.dumps(record))
        replace_one_field(record, data)
        path = fuzz_dir / f"{cls.KIND}.json"
        path.write_text(json.dumps(record))
        try:
            cls.from_file(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_damaged_checkpoint_refused(self, trained, fuzz_dir, data):
        out, _ = trained
        blob = bytearray((out / "best.ckpt").read_bytes())
        how = data.draw(st.sampled_from(["flip", "cut", "flip-resealed"]))
        path = fuzz_dir / "damaged.ckpt"
        if how == "cut":
            path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        else:
            body_end = len(blob) - 32 if how == "flip-resealed" else len(blob)
            # half the flips land in the header and metadata, which are parsed
            import cag.checkpoint as C
            head = len(C.MAGIC) + C._HEAD.size
            meta_end = head + C._HEAD.unpack_from(blob, len(C.MAGIC))[1]
            end = data.draw(st.sampled_from([meta_end, body_end]))
            blob[data.draw(st.integers(0, end - 1))] ^= data.draw(st.integers(1, 255))
            if how == "flip-resealed":
                blob[-32:] = hashlib.sha256(blob[:-32]).digest()
            path.write_bytes(blob)
        if how != "flip-resealed":
            with pytest.raises(CheckpointError, match="corrupt or truncated"):
                load_checkpoint(path)
            return
        # past the digest: every byte is parsed, checked or loaded as a weight
        try:
            build_model(load_checkpoint(path))
        except CheckpointError as exc:
            assert f"checkpoint {path}: " in str(exc)


class TestAtomicWrites:
    def test_failed_write_keeps_old_bytes_and_no_temp_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old contents\n")
        with pytest.raises(RuntimeError, match="killed"):
            with atomic_open(path) as fh:
                fh.write("new partial")
                fh.flush()
                raise RuntimeError("killed")
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"old")
        with atomic_open(path, "wb") as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_corpus_write_failing_partway_keeps_previous_split(self, tmp_path, tiny_corpus,
                                                               tiny_manifest, monkeypatch):
        import cag.synthdial as S
        out = tmp_path / "corpus"
        S.save_corpus(tiny_corpus, tiny_manifest, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        written = []

        def fail_on_third(inst):
            if len(written) == 2:
                raise RuntimeError("killed")
            written.append(inst)
            return {"id": -1}

        monkeypatch.setattr(S, "instance_to_dict", fail_on_third)
        with pytest.raises(RuntimeError, match="killed"):
            S.save_corpus(tiny_corpus, tiny_manifest, out, force=True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_checkpoint_write_failing_partway_keeps_previous_file(self, trained, tmp_path,
                                                                  monkeypatch):
        out, _ = trained
        ckpt = load_checkpoint(out / "best.ckpt")
        path = tmp_path / "best.ckpt"
        path.write_bytes((out / "best.ckpt").read_bytes())
        import types

        import cag.checkpoint as C

        def killed(data):
            raise RuntimeError("killed")

        # the digest is computed after the body is written
        monkeypatch.setattr(C, "hashlib", types.SimpleNamespace(sha256=killed))
        with pytest.raises(RuntimeError, match="killed"):
            save_checkpoint(path, ckpt.params_state, ckpt.optim, ckpt.vocab, ckpt.config)
        monkeypatch.undo()
        assert path.read_bytes() == (out / "best.ckpt").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


class TestTraceCommand:
    def test_trace_contents(self, trained, corpus_dir, tmp_path, tiny_corpus):
        out, cfg = trained
        dialog_id = tiny_corpus["val"][0].dialog_id
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                     "--dialog", str(dialog_id), "--out", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        assert doc["dialog_id"] == dialog_id
        assert len(doc["steps"]) == cfg.steps
        n = len(tiny_corpus["val"][0].scene.objects)
        for step in doc["steps"]:
            assert sum(step["alpha_q"]) == pytest.approx(1.0, abs=1e-9)
            assert len(step["S"]) == n
            assert all(len(row) == min(cfg.k_neighbors, n) for row in step["S"])
            for row in step["B"]:
                assert sum(row) == pytest.approx(1.0, abs=1e-9)
            assert len(step["top2"]) == 2
        assert sum(doc["alpha_g"]) == pytest.approx(1.0, abs=1e-9)
        assert sum(doc["alpha_h"]) == pytest.approx(1.0, abs=1e-9)
        assert doc["predicted_rank"] >= 1
        assert len(doc["logits"]) == 6

    def test_pipe_is_written_through_not_replaced(self, trained, corpus_dir, tmp_path,
                                                   tiny_corpus):
        out, _ = trained
        dialog_id = tiny_corpus["val"][0].dialog_id
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                     "--dialog", str(dialog_id), "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert json.loads(got[0])["dialog_id"] == dialog_id

    def test_unknown_dialog_rejected(self, trained, corpus_dir, capsys):
        out, _ = trained
        rc = main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                   "--dialog", "99999", "--out", "/tmp/nope.json"])
        assert rc != 0

    def test_id_in_two_splits_refused(self, trained, corpus_dir, tmp_path, tiny_corpus,
                                      capsys):
        # ids are unique within a split only; the trace used to take the
        # train dialog and could never reach the test one
        out, _ = trained
        bad = copy_corpus(corpus_dir, tmp_path / "corpus")
        lines = (bad / "test.jsonl").read_text().splitlines()
        lines[0] = with_line(lines[0], lambda d: d.update(id=0))
        (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
        assert tiny_corpus["train"][0].dialog_id == 0
        rc = main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(bad),
                   "--dialog", "0", "--out", str(tmp_path / "trace.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: dialog id 0 is in more than one split: {bad / 'train.jsonl'} and "
            f"{bad / 'test.jsonl'}"]
        assert "Traceback" not in err
        assert not (tmp_path / "trace.json").exists()

    def test_rerun_is_byte_identical(self, trained, corpus_dir, tmp_path, tiny_corpus):
        out, _ = trained
        dialog_id = tiny_corpus["train"][0].dialog_id
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["trace", "--ckpt", str(out / "best.ckpt"), "--corpus", str(corpus_dir),
                         "--dialog", str(dialog_id), "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
