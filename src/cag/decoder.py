"""Discriminative answer ranking: dot-product candidate scoring, softmax
cross-entropy over the candidate list, retrieval metrics, and the Adam
optimizer with a halve-every-10-epochs schedule."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_HALVING_EPOCHS = 10


def score_candidates(fused: Tensor, candidates: Tensor) -> Tensor:
    """Logit row (1, C): dot product of the fused embedding with each
    encoded candidate."""
    if fused.data.shape[0] != candidates.data.shape[0] or fused.data.shape[1] != 1:
        raise T.ShapeError(
            f"score_candidates: embedding {fused.data.shape} vs candidates "
            f"{candidates.data.shape}")
    return T.transpose(fused) @ candidates


def npair_loss(logits: Tensor, target: int) -> Tensor:
    """Softmax cross-entropy pushing the true candidate above all distractors."""
    return T.softmax_cross_entropy(logits, target)


def rank_of(logits: np.ndarray, target: int) -> int:
    """Pessimistic rank: every equal-scored competitor counts ahead of the
    ground truth, so ties never flatter the model."""
    row = np.asarray(logits).reshape(-1)
    if not (0 <= target < row.shape[0]):
        raise ValueError(f"rank_of: target {target} out of range [0, {row.shape[0]})")
    better = int((row > row[target]).sum())
    tied = int((row == row[target]).sum()) - 1
    return 1 + better + tied


@dataclass
class RankReport:
    mean_rank: float
    mrr: float
    r_at_1: float
    r_at_5: float
    r_at_10: float
    instances: int

    def to_dict(self) -> dict:
        return {
            "Mean": self.mean_rank,
            "MRR": self.mrr,
            "R@1": self.r_at_1,
            "R@5": self.r_at_5,
            "R@10": self.r_at_10,
            "instances": self.instances,
        }


def metrics_from_ranks(ranks: Sequence[int]) -> RankReport:
    r = np.asarray(ranks, dtype=float)
    if r.size == 0:
        raise ValueError("metrics_from_ranks: no instances")
    return RankReport(
        mean_rank=float(r.mean()),
        mrr=float((1.0 / r).mean()),
        r_at_1=float((r <= 1).mean()),
        r_at_5=float((r <= 5).mean()),
        r_at_10=float((r <= 10).mean()),
        instances=int(r.size),
    )


def rank_metrics(logit_rows: Sequence[np.ndarray], targets: Sequence[int]) -> RankReport:
    if len(logit_rows) != len(targets):
        raise ValueError("rank_metrics: logits and targets differ in length")
    return metrics_from_ranks([rank_of(l, g) for l, g in zip(logit_rows, targets)])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimState:
    """Adam accumulators keyed by parameter name, plus the lr schedule."""

    base_lr: float
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0
    epoch: int = 0

    def effective_lr(self) -> float:
        return self.base_lr * 0.5 ** (self.epoch // LR_HALVING_EPOCHS)


def adam_step(state: OptimState, params: Sequence[tuple[str, Tensor]]) -> bool:
    """One Adam update over named parameters, reading ``.grad`` slots.

    A non-finite gradient anywhere rejects the whole step (accumulators and
    parameters untouched) and logs the event; returns False in that case.
    """
    grads = {}
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            log.warning("adam_step: non-finite gradient in %s; step skipped", name)
            return False
        grads[name] = g

    state.step_count += 1
    t = state.step_count
    lr = state.effective_lr()
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params:
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return True
