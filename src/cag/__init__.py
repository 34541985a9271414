"""Question-commanded top-K message passing over joint visual-textual
graphs, trained on a synthetic grounded-dialog corpus with a symbolic
answer oracle."""

from .config import RunConfig
from .decoder import OptimState, RankReport, adam_step, npair_loss, rank_metrics
from .encoders import Vocab
from .gradcheck import finite_diff_check
from .graph import GraphParams, GraphState
from .model import Model, ModelParams, encode_instance
from .synthdial import (CorpusManifest, generate_corpus, generate_dialog,
                        generate_scene, oracle_answer)
from .tensor import Tensor, backward, no_grad, topk_indices
from .training import evaluate, train

__all__ = [
    "RunConfig", "OptimState", "RankReport", "adam_step", "npair_loss",
    "rank_metrics", "Vocab", "finite_diff_check", "GraphParams", "GraphState",
    "Model", "ModelParams", "encode_instance",
    "CorpusManifest", "generate_corpus", "generate_dialog", "generate_scene",
    "oracle_answer", "Tensor", "backward", "no_grad", "topk_indices",
    "evaluate", "train",
]
