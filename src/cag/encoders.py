"""Text side of the model: vocabulary, token embedding, LSTM sequence
encoding, question-conditioned history attention, and the per-step
word-level question commands that steer the graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

Drop = Callable[[Tensor], Tensor]
_identity: Drop = lambda x: x


@dataclass
class Vocab:
    """Token <-> id mapping with reserved PAD=0 and UNK=1. No sequence is
    padded: the PAD slot only keeps the embedding table's shape and initial
    draws, and the corpus loader refuses both reserved tokens."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    PAD = 0
    UNK = 1

    def __post_init__(self) -> None:
        if self.id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocab must reserve id 0 for PAD and id 1 for UNK")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocab tokens must be unique")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]]) -> "Vocab":
        return cls([PAD_TOKEN, UNK_TOKEN] + sorted({tok for sent in sentences for tok in sent}))

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_to_id.get(tok, self.UNK) for tok in tokens]


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


@dataclass
class LSTMParams:
    """Single-layer LSTM with stacked gates, order [input, forget, cell, output]."""

    w_x: Tensor  # (4d, d_in)
    w_h: Tensor  # (4d, d)
    b: Tensor    # (4d, 1)

    @classmethod
    def init(cls, d_in: int, d: int, rng: np.random.Generator | None) -> "LSTMParams":
        s = 1.0 / np.sqrt(d)
        return cls(
            w_x=T.parameter((4 * d, d_in), rng, s),
            w_h=T.parameter((4 * d, d), rng, s),
            b=T.parameter((4 * d, 1), rng, s),
        )

    def named(self, prefix: str):
        yield f"{prefix}.w_x", self.w_x
        yield f"{prefix}.w_h", self.w_h
        yield f"{prefix}.b", self.b


def lstm_encode(seq: Tensor, params: LSTMParams) -> Tensor:
    """Hidden sequence (d, m) for an input sequence (d_in, m).

    Initial hidden and cell states are zero. The run is one fused tape node
    (:func:`cag.tensor.lstm_sequence`).
    """
    return T.lstm_sequence(seq, params.w_x, params.w_h, params.b)


@dataclass
class EncodedQuestion:
    word_embs: Tensor   # (d_w, m)
    hiddens: Tensor     # (d, m)
    sentence: Tensor    # (d, 1), hidden state at the last position


def encode_question(ids: Sequence[int], table: Tensor, params: LSTMParams) -> EncodedQuestion:
    """Embed, LSTM-encode and summarize one token sequence; the sentence
    path shared by the question, every history round and every candidate.
    Sequences are never padded (the corpus loader refuses ``<pad>``)."""
    embs = T.embedding_cols(table, ids)
    hid = lstm_encode(embs, params)
    return EncodedQuestion(embs, hid, T.take_col(hid, hid.data.shape[1] - 1))


def encode_history(round_ids: Sequence[Sequence[int]], table: Tensor,
                   params: LSTMParams, cache: dict | None = None) -> Tensor:
    """(d, num_rounds) memory: one sentence vector per round, column 0 the
    caption.

    ``cache`` memoizes sentence vectors by token-id tuple: a round found
    there is a constant column and is not re-encoded, and every other round
    is added to it. A hit equals recomputing bit for bit, as long as the
    parameters do not change; it records nothing on the tape, so only a
    tape-off pass may pass a cache."""
    if not round_ids:
        raise ValueError("history must contain at least the caption round")
    cols = []
    for ids in round_ids:
        key = tuple(ids)
        if cache is not None and key in cache:
            cols.append(T.constant(cache[key]))
            continue
        cols.append(encode_question(ids, table, params).sentence)
        if cache is not None:
            cache[key] = cols[-1].data
    return T.concat(cols, axis=1) if len(cols) > 1 else cols[0]


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def history_attention(q_sent: Tensor, memory: Tensor, w_q: Tensor,
                      w_m: Tensor, p_score: Tensor, drop: Drop = _identity
                      ) -> tuple[Tensor, Tensor]:
    """Question-conditioned convex combination of the columns of ``memory``.

    z = tanh(w_q q_sent broadcast + w_m M); alpha = softmax(p_score z);
    returns (M alpha^T, alpha). The model's one attention head: it reads the
    dialog history for the context u, and the graph readout
    (:func:`cag.graph.graph_attention`) reuses it over the final nodes.
    """
    z = T.tanh(T.broadcast_cols(w_q @ q_sent, memory.data.shape[1]) + w_m @ memory)
    scores = p_score @ drop(z)
    alpha = T.masked_softmax(scores, None, axis=1)
    return memory @ T.transpose(alpha), alpha


@dataclass
class QuestionCommand:
    alpha: Tensor   # (1, m) word attention
    vector: Tensor  # (d_w, 1) attention-weighted word embedding


@dataclass
class StepAttentionParams:
    """Word-attention parameters owned by one inference step."""

    gate_tanh: Tensor  # (d, d)
    gate_sig: Tensor   # (d, d)
    score: Tensor      # (1, d)

    @classmethod
    def init(cls, d: int, rng: np.random.Generator | None) -> "StepAttentionParams":
        s = 1.0 / np.sqrt(d)
        return cls(T.parameter((d, d), rng, s), T.parameter((d, d), rng, s),
                   T.parameter((1, d), rng, s))

    def named(self, prefix: str):
        yield f"{prefix}.gate_tanh", self.gate_tanh
        yield f"{prefix}.gate_sig", self.gate_sig
        yield f"{prefix}.score", self.score


def question_command(question: EncodedQuestion, params: StepAttentionParams,
                     drop: Drop = _identity) -> QuestionCommand:
    """Step-specific word attention over the question.

    A tanh/sigmoid gate pair re-embeds the hidden sequence, each word's
    feature column is scaled to unit norm, and the resulting scores are
    softmaxed over the words. The command vector is the attention-
    weighted sum of the raw word embeddings.
    """
    gated = T.tanh(params.gate_tanh @ question.hiddens) * T.sigmoid(
        params.gate_sig @ question.hiddens)
    z = T.l2_normalize(gated, axis=0)
    scores = params.score @ drop(z)
    alpha = T.masked_softmax(scores, None, axis=1)
    vector = question.word_embs @ T.transpose(alpha)
    return QuestionCommand(alpha=alpha, vector=vector)
