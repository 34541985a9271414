"""Full model: every learnable weight, instance encoding, and the forward
pass from raw object features and token ids to candidate logits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .config import RunConfig
from .decoder import score_candidates
from .encoders import (LSTMParams, QuestionCommand, StepAttentionParams,
                       Vocab, encode_history, encode_question,
                       history_attention, question_command)
from .graph import AttentionTrace, GraphParams, fuse, graph_attention, iterate
from .synthdial import FEATURE_DIM, DialogInstance, token_sentences
from .tensor import Tensor


@dataclass
class ModelParams:
    """Every trainable weight, addressable by stable dotted names."""

    embedding: Tensor                 # (vocab, d_w), uniform(-0.8, 0.8)
    question_lstm: LSTMParams         # d_w -> d
    history_lstm: LSTMParams          # d_w -> d; also encodes candidates
    hist_att_q: Tensor                # (d, d)
    hist_att_mem: Tensor              # (d, d)
    hist_att_score: Tensor            # (1, d)
    step_attention: list[StepAttentionParams]  # one per inference step
    cmd_from_sentence: Tensor         # (d_w, d) shared projection (no_q_att)
    graph: GraphParams
    visual_proj: Tensor               # (d, d_v)
    visual_bias: Tensor               # (d, 1)

    @classmethod
    def init(cls, cfg: RunConfig, vocab_size: int,
             rng: np.random.Generator | None = None) -> "ModelParams":
        """Fresh parameters; rng=None builds zero-filled shells (checkpoint
        loading fills them in). A ``d_v`` other than the scene feature
        dimension is refused.

        Embeddings draw from uniform(-0.8, 0.8): roughly the magnitude of
        pretrained word vectors. At much smaller scales the text pathway
        stalls for many epochs before the co-reference signal appears.
        """
        if cfg.d_v != FEATURE_DIM:
            raise ValueError(f"scene features have dimension {FEATURE_DIM}, but the "
                             f"config has d_v={cfg.d_v}")
        d, d_w = cfg.d, cfg.d_w

        def u(rows, cols, scale=None):
            return T.parameter((rows, cols), rng, scale or 1.0 / np.sqrt(cols))

        # drawn before the rest: the draw order fixes every initial weight
        graph = GraphParams.init(d, d_w, rng)

        return cls(
            embedding=u(vocab_size, d_w, scale=0.8),
            question_lstm=LSTMParams.init(d_w, d, rng),
            history_lstm=LSTMParams.init(d_w, d, rng),
            hist_att_q=u(d, d),
            hist_att_mem=u(d, d),
            hist_att_score=u(1, d),
            step_attention=[StepAttentionParams.init(d, rng) for _ in range(cfg.steps)],
            cmd_from_sentence=u(d_w, d),
            graph=graph,
            visual_proj=u(d, cfg.d_v),
            visual_bias=u(d, 1, scale=1.0 / np.sqrt(d)),
        )

    def named(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding)]
        out += list(self.question_lstm.named("question_lstm"))
        out += list(self.history_lstm.named("history_lstm"))
        out += [("history_attention.q_proj", self.hist_att_q),
                ("history_attention.mem_proj", self.hist_att_mem),
                ("history_attention.score", self.hist_att_score)]
        for t, sp in enumerate(self.step_attention, start=1):
            out += list(sp.named(f"step_attention.{t}"))
        out.append(("command_from_sentence", self.cmd_from_sentence))
        out += list(self.graph.named("graph"))
        out += [("visual.proj", self.visual_proj), ("visual.bias", self.visual_bias)]
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(f"parameter names differ: missing={sorted(missing)} "
                             f"unexpected={sorted(extra)}")
        for name, t in own.items():
            if state[name].shape != t.data.shape:
                raise ValueError(
                    f"parameter {name}: stored shape {state[name].shape} does not "
                    f"match expected {t.data.shape}")
            t.data = np.array(state[name], dtype=np.float64)


# ---------------------------------------------------------------------------
# instance encoding
# ---------------------------------------------------------------------------


@dataclass
class EncodedInstance:
    dialog_id: int
    features: np.ndarray              # (d_v, n)
    caption_ids: list[int]
    round_ids: list[list[int]]        # one 'q a' id stream per history round
    question_ids: list[int]
    candidate_ids: list[tuple[int, ...]]
    gt: int


def encode_instance(inst: DialogInstance, vocab: Vocab) -> EncodedInstance:
    return EncodedInstance(
        dialog_id=inst.dialog_id,
        features=inst.scene.features(),
        caption_ids=vocab.encode(inst.caption),
        round_ids=[vocab.encode(r.question + [r.answer]) for r in inst.history],
        question_ids=vocab.encode(inst.current.question),
        candidate_ids=[tuple(vocab.encode([c])) for c in inst.candidates],
        gt=inst.gt,
    )


def build_vocab(instances: Sequence[DialogInstance]) -> Vocab:
    return Vocab.build(sent for inst in instances for sent in token_sentences(inst))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    logits: Tensor                    # (1, C)
    trace: AttentionTrace
    q_sentence: np.ndarray            # (d, 1) question sentence vector


class Model:
    """Parameters plus configuration, runnable on encoded instances."""

    def __init__(self, params: ModelParams, cfg: RunConfig):
        self.params = params
        self.cfg = cfg

    def forward(self, enc: EncodedInstance,
                drop_rng: np.random.Generator | None = None,
                candidate_cache: dict | None = None) -> ForwardResult:
        """Dropout applies if and only if ``drop_rng`` is given."""
        p, cfg = self.params, self.cfg
        keep = 1.0 - cfg.dropout
        drop = (lambda x: x) if drop_rng is None else (lambda x: T.dropout(x, keep, drop_rng))

        feats = T.constant(enc.features)
        n = feats.data.shape[1]
        visual = T.tanh(p.visual_proj @ feats
                        + T.broadcast_cols(p.visual_bias, n))

        question = encode_question(enc.question_ids, p.embedding, p.question_lstm)

        if "no_u" in cfg.ablations:
            # history only enters through u, so no_u skips its encoder
            context, alpha_h = T.constant(np.zeros((cfg.d, 1))), None
        else:
            history = encode_history([enc.caption_ids] + enc.round_ids,
                                     p.embedding, p.history_lstm)
            context, alpha_h = history_attention(
                question.sentence, history, p.hist_att_q, p.hist_att_mem,
                p.hist_att_score, drop)

        if "no_q_att" in cfg.ablations:
            shared = p.cmd_from_sentence @ question.sentence
            uniform = np.full((1, len(enc.question_ids)), 1.0 / len(enc.question_ids))

            def command_fn(t: int) -> QuestionCommand:
                return QuestionCommand(T.constant(uniform), shared)
        else:
            def command_fn(t: int) -> QuestionCommand:
                return question_command(question, p.step_attention[t - 1], drop)

        state, records = iterate(visual, context, command_fn, p.graph, cfg)
        graph_emb, alpha_g = graph_attention(state.nodes, question.sentence,
                                             p.graph, "no_g_att" in cfg.ablations, drop)
        fused = fuse(graph_emb, context, question.sentence, p.graph, drop)

        cols = []
        for ids in enc.candidate_ids:
            if candidate_cache is not None and ids in candidate_cache:
                cols.append(T.constant(candidate_cache[ids]))
                continue
            hid = encode_history([list(ids)], p.embedding, p.history_lstm)
            cols.append(hid)
            if candidate_cache is not None:
                candidate_cache[ids] = hid.data.copy()
        candidates = T.concat(cols, axis=1) if len(cols) > 1 else cols[0]
        logits = score_candidates(fused, candidates)

        trace = AttentionTrace(
            steps=records,
            alpha_h=alpha_h.data.reshape(-1) if alpha_h is not None else None,
            alpha_g=alpha_g.data.reshape(-1),
        )
        return ForwardResult(logits=logits, trace=trace,
                             q_sentence=question.sentence.data)


def top_attended(alpha: np.ndarray, k: int = 2) -> list[int]:
    """Most-attended object ids, strongest first, ties to the lowest id."""
    alpha = np.asarray(alpha).reshape(-1)
    order = sorted(range(alpha.size), key=lambda j: (-alpha[j], j))
    return [int(i) for i in order[: min(k, alpha.size)]]
