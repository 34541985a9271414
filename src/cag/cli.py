"""Command-line workflow: gen / train / eval / trace.

All commands are deterministic given their inputs: the config file
holds the model and training settings, and the command line names the
files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections import Counter

from . import tensor as T
from .checkpoint import (CheckpointError, build_model, load_checkpoint,
                         save_checkpoint)
from .config import ABLATIONS, RunConfig, atomic_open
from .decoder import rank_of
from .graph import graph_attention
from .model import encode_instance, top_attended
from .synthdial import (SPLIT_ORDER, CorpusManifest, GenerationError,
                        generate_corpus, load_split, save_corpus)
from .training import evaluate, train


class CliError(RuntimeError):
    """User-facing command failure (bad arguments or incompatible inputs)."""


def cmd_gen(args) -> int:
    manifest = CorpusManifest.from_file(args.manifest)
    try:
        corpus = generate_corpus(manifest)
    except GenerationError as exc:
        raise GenerationError(
            f"{args.manifest}: {exc} (n_objects={manifest.n_objects}, "
            f"rounds={manifest.rounds})") from None
    save_corpus(corpus, manifest, args.out, force=args.force)
    kinds = Counter(inst.current.form.kind
                    for split in corpus.values() for inst in split)
    total = sum(len(v) for v in corpus.values())
    print(f"wrote {total} dialogs to {args.out}")
    for split in SPLIT_ORDER:
        print(f"  {split}: {len(corpus.get(split, []))}")
    print("  final-question mix: "
          + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    return 0


def _load_nonempty_split(corpus: str, split: str):
    instances = load_split(corpus, split)
    if not instances:
        raise CliError(f"{os.path.join(corpus, f'{split}.jsonl')}: the split is empty")
    return instances


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    train_set = _load_nonempty_split(args.corpus, "train")
    try:
        val_set = load_split(args.corpus, "val")
    except FileNotFoundError:
        val_set = []

    model, optim, result, vocab = train(train_set, val_set, cfg)

    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "metrics.jsonl")
    with atomic_open(log_path) as fh:
        for row in result.log_rows:
            fh.write(json.dumps(row) + "\n")
    ckpt_path = os.path.join(args.out, "best.ckpt")
    save_checkpoint(ckpt_path, result.best_params, result.best_optim, vocab, cfg)
    print(f"wrote {log_path} ({len(result.log_rows)} rows) and {ckpt_path}")
    if result.log_rows:
        print(f"best val MRR {result.best_mrr:.4f} at epoch {result.best_epoch}" if val_set
              else f"no val split: {ckpt_path} holds the final epoch {result.best_epoch}")
    return 0


def _load_for_eval(args):
    extra = args.ablate.split(",") if args.ablate else []
    if not set(extra) <= set(ABLATIONS):
        raise CliError(f"--ablate: must be among {ABLATIONS}, got {args.ablate!r}")
    ckpt = load_checkpoint(args.ckpt)
    return ckpt, build_model(ckpt, extra_ablations=extra)


def cmd_eval(args) -> int:
    ckpt, model = _load_for_eval(args)
    instances = _load_nonempty_split(args.corpus, args.split)
    encoded = [encode_instance(i, ckpt.vocab) for i in instances]
    report, _ = evaluate(model, encoded)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def build_trace_doc(model, enc, result) -> dict:
    """Assemble the per-step trace export for one dialog."""
    logits = result.logits.data.reshape(-1)
    steps = []
    for rec in result.trace.steps:
        _, alpha = graph_attention(T.constant(rec.nodes_after),
                                   T.constant(result.q_sentence), model.params.graph)
        node_att = alpha.data.reshape(-1)
        steps.append({
            "t": rec.step,
            "alpha_q": rec.alpha_q.tolist(),
            "A": rec.adjacency.tolist(),
            "S": rec.neighbors.tolist(),
            "B": rec.weights.tolist(),
            "M": rec.messages.tolist(),
            "node_attention": node_att.tolist(),
            "top2": top_attended(node_att, 2),
        })
    alpha_h = result.trace.alpha_h
    return {
        "dialog_id": enc.dialog_id,
        "steps": steps,
        "alpha_h": None if alpha_h is None else alpha_h.tolist(),
        "alpha_g": result.trace.alpha_g.tolist(),
        "logits": logits.tolist(),
        "predicted_rank": rank_of(logits, enc.gt),
        "gt": enc.gt,
    }


def cmd_trace(args) -> int:
    ckpt, model = _load_for_eval(args)
    found = {}  # split file -> the dialog with the id; ids are unique within a split
    for split in SPLIT_ORDER:
        try:
            found.update((os.path.join(args.corpus, f"{split}.jsonl"), inst)
                         for inst in load_split(args.corpus, split)
                         if inst.dialog_id == args.dialog)
        except FileNotFoundError:
            continue
    if not found:
        raise CliError(f"dialog id {args.dialog} not found in {args.corpus}")
    if len(found) > 1:
        raise CliError(f"dialog id {args.dialog} is in more than one split: "
                       f"{' and '.join(found)}")
    (inst,) = found.values()
    enc = encode_instance(inst, ckpt.vocab)
    with T.no_grad():
        result = model.forward(enc)
        doc = build_trace_doc(model, enc, result)
    # a pipe or device (say /dev/stdout) is written through; a file is replaced
    opener = open if os.path.exists(args.out) and not os.path.isfile(args.out) else atomic_open
    with opener(args.out, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    print(f"wrote trace for dialog {args.dialog} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cag",
        description="graph-inference visual dialog: corpus generation, "
                    "training, evaluation, and attention traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corpus from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="overwrite existing corpus files")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train and checkpoint the best-MRR epoch")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="rank-metric report for a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", required=True, choices=SPLIT_ORDER)
    p.add_argument("--ablate", default="",
                   help="comma-separated ablations to apply at eval time")
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("trace", help="export per-step attention data for one dialog")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dialog", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ablate", default="")
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, GenerationError, CheckpointError, CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
