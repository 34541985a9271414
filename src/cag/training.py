"""Training recipe: per-instance softmax cross-entropy over the candidate
list, Adam with the halving schedule, per-epoch held-out metrics, and a
best-MRR snapshot. Everything is a deterministic function of the config
seed."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .config import RunConfig
from .decoder import (OptimState, RankReport, adam_step, metrics_from_ranks,
                      npair_loss, rank_of)
from .encoders import Vocab
from .model import (EncodedInstance, Model, ModelParams, build_vocab,
                    encode_instance)
from .synthdial import DialogInstance

log = logging.getLogger(__name__)


@dataclass
class TrainResult:
    log_rows: list[dict] = field(default_factory=list)
    best_epoch: int | None = None
    best_mrr: float = float("-inf")
    best_params: dict[str, np.ndarray] | None = None
    best_optim: OptimState | None = None  # schedule scalars; moments left empty


def evaluate(model: Model, instances: Sequence[EncodedInstance],
             collect_logits: bool = False) -> tuple[RankReport, list[np.ndarray]]:
    """Deterministic eval: dropout off, tape off, candidate encodings
    memoized within the pass (parameters are frozen for its duration)."""
    ranks, rows = [], []
    cache: dict = {}
    with T.no_grad():
        for enc in instances:
            logits = model.forward(enc, candidate_cache=cache).logits.data.reshape(-1)
            ranks.append(rank_of(logits, enc.gt))
            if collect_logits:
                rows.append(logits.copy())
    return metrics_from_ranks(ranks), rows


def train(train_set: Sequence[DialogInstance], val_set: Sequence[DialogInstance],
          cfg: RunConfig) -> tuple[Model, OptimState, TrainResult, Vocab]:
    """Full run: build vocab from the train split, fit, and snapshot the
    epoch with the best val MRR (without a val split the last epoch; with
    zero epochs the initial weights, ``best_epoch`` None and no log rows)."""
    if not train_set:
        raise ValueError("the train split is empty")

    vocab = build_vocab(train_set)
    rng_params = np.random.default_rng([cfg.seed, 0])
    rng_dropout = np.random.default_rng([cfg.seed, 1])
    rng_shuffle = np.random.default_rng([cfg.seed, 2])

    params = ModelParams.init(cfg, len(vocab), rng_params)
    model = Model(params, cfg)
    named = params.named()
    optim = OptimState(base_lr=cfg.lr)

    enc_train = [encode_instance(i, vocab) for i in train_set]
    enc_val = [encode_instance(i, vocab) for i in val_set]

    result = TrainResult()

    def snapshot(epoch: int | None) -> None:
        result.best_epoch = epoch
        result.best_params = params.state_dict()
        result.best_optim = replace(optim, m={}, v={})

    for epoch in range(cfg.epochs):
        optim.epoch = epoch
        losses, skipped = [], 0
        for idx in rng_shuffle.permutation(len(enc_train)):
            enc = enc_train[int(idx)]
            loss = npair_loss(model.forward(enc, drop_rng=rng_dropout).logits, enc.gt)
            losses.append(loss.item())
            T.backward(loss, params.tensors())
            if not adam_step(optim, named):  # a non-finite gradient
                skipped += 1

        row = {"epoch": epoch, "loss": float(np.mean(losses)), "skipped_steps": skipped}
        if enc_val:
            report, _ = evaluate(model, enc_val)
            row.update({"MRR": report.mrr, "R@1": report.r_at_1,
                        "R@5": report.r_at_5, "R@10": report.r_at_10,
                        "Mean": report.mean_rank})
            if report.mrr > result.best_mrr:
                result.best_mrr = report.mrr
                snapshot(epoch)
        row["lr"] = optim.effective_lr()
        result.log_rows.append(row)
        log.info("epoch %d: loss %.4f%s", epoch, row["loss"],
                 f" val MRR {row['MRR']:.4f}" if "MRR" in row else "")
    if result.best_params is None:  # no val split, or no epoch ran
        snapshot(cfg.epochs - 1 if cfg.epochs else None)
    return model, optim, result, vocab
