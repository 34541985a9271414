#!/usr/bin/env python3
"""Fixed-seed output fingerprint: the sha256 of everything gen/train/eval/trace
write, for checking that a change leaves the numerics bit for bit unchanged.

Usage: python3 scripts/fingerprint.py
Regenerate the committed expectation: python3 scripts/fingerprint.py > tests/fingerprint.txt

Runs the CLI in a fresh temporary directory on eight fixed-seed
configurations (the benchmark's three workload shapes, then the no_u,
no_infer, no_q_att and no_g_att ablations and the dualq variant on the
first shape), traces the first run once more under the eval-time no_u
ablation, and prints one ``sha256  path`` line per artifact: each corpus
file, ``corpus/sweep.jsonl`` (generated dialogs over the generator's whole
``n_objects`` range, see ``SWEEP``), and each run's metrics.jsonl,
best.ckpt, val eval report and trace JSON. Each checkpoint also gets a
``sha256  runs/<run>/best.ckpt#params`` line: the hash of its parameter
arrays alone (name, shape and bytes, in name order), so a change to the
container format that keeps the weights shows identical ``#params`` lines.
Paths are relative to the temporary directory, so two checkouts with
identical numerics print identical output.

The output opens with ``#`` lines naming the numpy version and BLAS
library, because floating-point results are only comparable between runs
on the same ones.
"""

import contextlib
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cag.checkpoint import load_checkpoint  # noqa: E402
from cag.cli import main  # noqa: E402
from cag.config import RunConfig  # noqa: E402
from cag.synthdial import (  # noqa: E402
    MAX_OBJECTS,
    MIN_OBJECTS,
    CorpusManifest,
    generate_corpus,
    instance_to_dict,
    load_split,
)

# corpus name -> (n_objects, rounds, candidates)
CORPORA = {
    "learn": (6, 4, 10),
    "wide_graph": (16, 2, 4),
    "long_dialog": (5, 10, 20),
}
SPLITS = {"train": 40, "val": 10, "test": 5}
# corpus/sweep.jsonl: SWEEP_DIALOGS train dialogs of seed 1 for every
# (n_objects, rounds) pair, at 20 candidates: 840 dialogs, generated in
# under a second
SWEEP_DIALOGS = 20
SWEEP = [(n_objects, rounds) for n_objects in range(MIN_OBJECTS, MAX_OBJECTS + 1)
         for rounds in (2, 3, 10)]
MODEL = dict(d=64, d_w=32, d_v=16, dropout=0.3, lr=4e-4, epochs=2, seed=13)
# run name -> (corpus, config overrides)
RUNS = {
    "learn": ("learn", dict(k_neighbors=4, steps=3)),
    "wide_graph": ("wide_graph", dict(k_neighbors=8, steps=8)),
    "long_dialog": ("long_dialog", dict(k_neighbors=2, steps=1)),
    "learn_no_u": ("learn", dict(k_neighbors=4, steps=3, ablations=["no_u"])),
    "learn_no_infer": ("learn", dict(k_neighbors=4, steps=3, ablations=["no_infer"])),
    "learn_dualq": ("learn", dict(k_neighbors=4, steps=3, variant="dualq")),
    "learn_no_q_att": ("learn", dict(k_neighbors=4, steps=3, ablations=["no_q_att"])),
    "learn_no_g_att": ("learn", dict(k_neighbors=4, steps=3, ablations=["no_g_att"])),
}


def cag(*argv: str) -> str:
    """Run one CLI command and return what it printed; exit on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    if rc != 0:
        sys.exit(f"cag {' '.join(argv)} exited with {rc}")
    return out.getvalue()


def write_sweep(path: str) -> None:
    """The SWEEP dialogs, one line each in ``save_corpus``'s format."""
    with open(path, "w") as fh:
        for n_objects, rounds in SWEEP:
            manifest = CorpusManifest(seed=1, splits={"train": SWEEP_DIALOGS},
                                      n_objects=n_objects, rounds=rounds, candidates=20)
            for inst in generate_corpus(manifest)["train"]:
                fh.write(json.dumps(instance_to_dict(inst),
                                    sort_keys=True, separators=(",", ":")) + "\n")


def produce() -> None:
    """Write every artifact under the current directory."""
    for seed, (name, (n_objects, rounds, candidates)) in enumerate(CORPORA.items(), 101):
        manifest = CorpusManifest(seed=seed, splits=SPLITS, n_objects=n_objects,
                                  rounds=rounds, candidates=candidates)
        Path(f"{name}.manifest.json").write_text(manifest.to_json())
        cag("gen", "--manifest", f"{name}.manifest.json", "--out", f"corpus/{name}")
    write_sweep("corpus/sweep.jsonl")
    for run, (corpus, overrides) in RUNS.items():
        corpus_dir = f"corpus/{corpus}"
        Path(f"{run}.config.json").write_text(RunConfig(**MODEL, **overrides).to_json())
        cag("train", "--config", f"{run}.config.json", "--corpus", corpus_dir,
            "--out", f"runs/{run}")
        ckpt = f"runs/{run}/best.ckpt"
        Path(f"runs/{run}/eval_val.json").write_text(
            cag("eval", "--ckpt", ckpt, "--corpus", corpus_dir, "--split", "val"))
        dialog = load_split(corpus_dir, "val")[0].dialog_id
        cag("trace", "--ckpt", ckpt, "--corpus", corpus_dir, "--dialog", str(dialog),
            "--out", f"runs/{run}/trace.json")
    dialog = load_split("corpus/learn", "val")[0].dialog_id
    cag("trace", "--ckpt", "runs/learn/best.ckpt", "--corpus", "corpus/learn",
        "--dialog", str(dialog), "--ablate", "no_u", "--out", "runs/learn/trace_ablate_no_u.json")


def params_digest(ckpt_path: Path) -> str:
    h = hashlib.sha256()
    for name, data in sorted(load_checkpoint(ckpt_path).params_state.items()):
        h.update(name.encode())
        h.update(repr(data.shape).encode())
        h.update(data.tobytes())
    return h.hexdigest()


def fingerprint() -> list[str]:
    lines = []
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        if path.parts[0] in ("corpus", "runs"):
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
            if path.name == "best.ckpt":
                lines.append(f"{params_digest(path)}  {path.as_posix()}#params")
    return lines


def environment() -> list[str]:
    """The ``#`` header: numpy version and BLAS library name and version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas_name = "unknown"
    return [f"# numpy {np.__version__}", f"# blas {blas_name}"]


def run() -> int:
    logging.basicConfig(level=logging.WARNING)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cag-fingerprint-") as tmp:
        os.chdir(tmp)
        try:
            produce()
            lines = fingerprint()
        finally:
            os.chdir(home)
    print("\n".join(environment() + lines))
    return 0


if __name__ == "__main__":
    sys.exit(run())
