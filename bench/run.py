#!/usr/bin/env python3
"""End-to-end benchmark for cag, driven through its public API in one process.

    python3 bench/run.py --workload learn --seed 13 --seconds 20 --trace 0

A run generates a corpus from --seed (generate_corpus, save_corpus,
load_split), trains on it (training.train), round-trips the model through a
checkpoint (save_checkpoint, load_checkpoint, build_model), then evaluates the
held-out split in one batch (training.evaluate) and one dialog per call. It
checks the outputs on the way and prints every metric by name and unit.

--trace 0 reports the end-to-end metrics of workloads.END_TO_END.
--trace 1 runs the workload twice at half size, untraced and then with span
wrappers around each layer's public functions, and reports the per-layer
metrics of layers.PER_LAYER, with the tracing overhead as the difference
between the two passes. Spans are written to .bench_run/ at the end.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A failed check makes the exit code 1; a checkout without
cag's sources makes it 2.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from spans import percentile
from workloads import (END_TO_END, EPOCHS, LATENCY_TAIL, MODEL, MODEL_SEED_OFFSET,
                       REPORTED, ROUNDS, SETUP_REPEATS, TIMING_PERCENTILE, WORKLOADS,
                       Plan, Workload, plan_for)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"


def import_cag():
    """cag from this checkout's src/, never from anywhere else."""
    if not (SRC / "cag" / "__init__.py").is_file():
        print(f"error: no cag sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cag
    if Path(cag.__file__).resolve().parent != SRC / "cag":
        print(f"error: imported cag from {cag.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import cag.checkpoint, cag.decoder, cag.model, cag.synthdial, cag.training  # noqa: E401
    return cag


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures named."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class RejectedSteps(logging.Handler):
    """Counts adam_step's warnings: it logs one per rejected (non-finite) step."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("adam_step: non-finite"):
            self.count += 1


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run_pass(cag, wl: Workload, plan: Plan, seed: int, workdir: Path,
             tally: Tally, phase=lambda name: contextlib.nullcontext()) -> dict:
    """One pass over the workload; returns its end-to-end values and the
    checkpoint size. ``phase(name)`` is entered around each phase."""
    synthdial, training, checkpoint = cag.synthdial, cag.training, cag.checkpoint
    rank_of = cag.decoder.rank_of
    manifest = synthdial.CorpusManifest(
        seed=seed, splits={"train": plan.n_train, "val": 0, "test": plan.n_heldout},
        n_objects=wl.n_objects, rounds=wl.rounds, candidates=wl.candidates)
    cfg = cag.RunConfig(seed=seed + MODEL_SEED_OFFSET, k_neighbors=wl.k_neighbors,
                        steps=wl.steps, epochs=EPOCHS, **MODEL)
    corpus_dir = str(workdir / "corpus")
    ckpt_path = str(workdir / "model.ckpt")

    with phase("setup"):
        setup_corpus = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            corpus = synthdial.generate_corpus(manifest)
            synthdial.save_corpus(corpus, manifest, corpus_dir, force=True)
            train_set = synthdial.load_split(corpus_dir, "train")
            heldout = synthdial.load_split(corpus_dir, "test")
            setup_corpus.append(time.perf_counter() - t0)
    for inst in train_set + heldout:
        tally.check(inst.candidates[inst.gt]
                    == synthdial.oracle_answer(inst.scene, inst.current.form),
                    f"dialog {inst.dialog_id}: candidates[gt] is not the oracle answer")

    def valid(row, enc) -> bool:
        return bool(row.size == len(enc.candidate_ids) and np.isfinite(row).all()
                    and 1 <= rank_of(row, enc.gt) <= row.size)

    train_s, ckpt_s, eval_s, latency = [], [], [], []
    ref_losses = ref_rows = ref_report = None   # the first call's outputs
    rejected = RejectedSteps()
    logger = logging.getLogger("cag.decoder")
    for r in range(ROUNDS):
        logger.addHandler(rejected)
        try:
            with phase("train"):
                t0 = time.perf_counter()
                model, _, result, vocab = training.train(train_set, [], cfg)
                train_s.append(time.perf_counter() - t0)
        finally:
            logger.removeHandler(rejected)
        losses = [row["loss"] for row in result.log_rows]
        for epoch, loss in enumerate(losses):
            tally.check(math.isfinite(loss), f"round {r} epoch {epoch}: mean loss {loss}")
        if ref_losses is None:
            ref_losses = losses
        tally.check(losses == ref_losses, f"round {r}: training differs from round 0")

        if r % (ROUNDS // SETUP_REPEATS) == 0:
            with phase("checkpoint"):
                t0 = time.perf_counter()
                checkpoint.save_checkpoint(ckpt_path, result.best_params,
                                           result.best_optim, vocab, cfg)
                ckpt = checkpoint.load_checkpoint(ckpt_path)
                loaded = checkpoint.build_model(ckpt)
                encs = [cag.model.encode_instance(inst, ckpt.vocab) for inst in heldout]
                ckpt_s.append(time.perf_counter() - t0)
            trained, restored = model.params.state_dict(), loaded.params.state_dict()
            tally.check(trained.keys() == restored.keys()
                        and all(same_bits(trained[k], restored[k]) for k in trained),
                        f"round {r}: parameters differ after the checkpoint round trip")

        with phase("eval"):
            t0 = time.perf_counter()
            report, rows = training.evaluate(loaded, encs, collect_logits=True)
            eval_s.append(time.perf_counter() - t0)
        for enc, row in zip(encs, rows):
            tally.check(valid(row, enc),
                        f"dialog {enc.dialog_id}: non-finite or unrankable batch logits")

        singles = []
        calls = range(r * plan.latency_calls // ROUNDS, (r + 1) * plan.latency_calls // ROUNDS)
        with phase("latency"):
            for i in calls:
                enc = encs[i % len(encs)]
                t0 = time.perf_counter()
                _, single = training.evaluate(loaded, [enc], collect_logits=True)
                latency.append(time.perf_counter() - t0)
                singles.append(single[0])
        for i, row in zip(calls, singles):
            enc = encs[i % len(encs)]
            tally.check(valid(row, enc) and same_bits(row, rows[i % len(encs)]),
                        f"dialog {enc.dialog_id}: single-dialog logits differ from batch eval")

        if ref_rows is None:
            ref_rows, ref_report = rows, report
        tally.check(all(map(same_bits, rows, ref_rows)),
                    f"round {r}: batch eval differs from round 0")

    steps = ROUNDS * EPOCHS * plan.n_train
    tally.attempted += steps
    tally.failed += rejected.count
    if rejected.count:
        tally.problems.append(f"{rejected.count} of {steps} Adam steps rejected")

    heldout_loss = statistics.fmean(
        float(np.logaddexp.reduce(row) - row[enc.gt]) for enc, row in zip(encs, ref_rows))
    return {
        "setup_s": statistics.median(setup_corpus) + statistics.median(ckpt_s),
        "train_dialogs_per_s": EPOCHS * plan.n_train / percentile(train_s, TIMING_PERCENTILE),
        "eval_dialogs_per_s": len(encs) / percentile(eval_s, TIMING_PERCENTILE),
        "dialog_latency_ms.p50": 1e3 * percentile(latency, 50),
        f"dialog_latency_ms.p{TIMING_PERCENTILE}": 1e3 * percentile(latency, TIMING_PERCENTILE),
        f"dialog_latency_ms.p{LATENCY_TAIL}": 1e3 * percentile(latency, LATENCY_TAIL),
        "train_loss": ref_losses[-1],
        "heldout_loss": heldout_loss,
        "heldout_mrr": ref_report.mrr,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checkpoint_bytes": os.path.getsize(ckpt_path),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its
    own API; None if it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(load_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    load_start = list(os.getloadavg())
    cag = import_cag()

    wl = WORKLOADS[args.workload]
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"  why: {wl.why}")

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if not args.trace:
            plan = plan_for(wl, args.seconds)
            values = run_pass(cag, wl, plan, args.seed, Path(tmp), tally)
            defs, extra, silent = END_TO_END, REPORTED, []
        else:
            plan = plan_for(wl, args.seconds / 2)
            untraced = run_pass(cag, wl, plan, args.seed, Path(tmp), tally)
            rec = layers.LayerRecorder()
            with layers.installed(rec):
                traced = run_pass(cag, wl, plan, args.seed, Path(tmp), tally, rec.span)
            rec.write(OUT / f"spans-{tag}.jsonl")
            analysis = layers.Analysis(rec.spans)
            fired = {s[0] for s in analysis.spans}
            silent = sorted({name for _, _, name in layers.TARGETS} - fired)
            for name in silent:
                print(f"  span {name}: MISSING (wrapped, never fired)")
            tally.check(all(traced[k] == untraced[k]
                            for k in ("train_loss", "heldout_loss", "heldout_mrr")),
                        "tracing changed what the model computes")
            for problem in layers.count_gate(analysis, wl.lstm_calls, wl.history_calls):
                tally.check(False, problem)
            info = {"n_train": plan.n_train, "n_heldout": plan.n_heldout,
                    "epochs": EPOCHS, "candidates": wl.candidates,
                    "checkpoint_bytes": traced["checkpoint_bytes"]}
            values = layers.compute(analysis, rec, info, traced, untraced)
            defs, extra = layers.PER_LAYER, []
            print(f"  {len(analysis.spans)} spans; end-to-end, untraced -> traced:")
            for m in END_TO_END + REPORTED:
                print(f"    {m.name:<28} {untraced[m.name]:>12.4f} -> "
                      f"{traced[m.name]:>12.4f} {m.unit}")

    print(f"  plan per pass: {SETUP_REPEATS} corpus set-ups and checkpoint round trips; "
          f"{ROUNDS} rounds of (train on {plan.n_train} dialog(s) x {EPOCHS} epoch, "
          f"batch eval of {plan.n_heldout} held-out dialogs); {plan.latency_calls} "
          f"single-dialog calls in all (closed loop, 1 caller)")
    metrics, missing = {}, []
    for bounded, group in ((True, defs), (False, extra)):
        if group and not bounded:
            print("  reported, not bounded:")
        for m in group:
            v = values.get(m.name)
            if v is None:
                missing.append(m.name)
                print(f"  {m.name:<36} MISSING (span never fired)")
                continue
            if bounded:
                metrics[m.name] = {"value": v, "unit": m.unit}
            moves = f"; should move {m.moves}" if isinstance(m, layers.LayerMetric) else ""
            print(f"  {m.name:<36} {v:>14.6g} {m.unit:<6} ({m.better} is better; "
                  f"{m.about}{moves})")
    share = tally.failed / tally.attempted
    print(f"  {'failed_share':<36} {share:>14.6g} ratio ({tally.failed} of "
          f"{tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")

    env = environment(load_start)
    print("  env: " + json.dumps(env))
    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "env": env, "missing": missing + silent,
                   "workload": wl.name, "seed": args.seed, "seconds": args.seconds}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
