"""Context-aware graph over visual objects: construction, question-commanded
adjacency learning, adaptive top-K message passing, node updates, graph
attention, and the final multimodal fusion.

Nodes are (2d, n) columns [v_i; c_i]: a fixed visual half and a learned
context half. Each inference step recomputes the directed adjacency under
that step's question command, routes messages from each node's top-K
in-neighbors only, and rewrites the context half. Gradients flow through
the selected adjacency entries and messages, never through the discrete
neighbor choice itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoders import Drop, QuestionCommand, _identity, history_attention
from .tensor import Tensor


@dataclass
class GraphParams:
    """Weights shared by every inference step, plus attention and fusion."""

    edge_dst_proj: Tensor      # (d, 2d) receiving-node projection
    edge_src_proj: Tensor      # (d, 2d) distributing-node projection
    edge_cmd_gate: Tensor      # (d, d_w) command gate on the distributing side
    edge_dst_cmd_gate: Tensor  # (d, d_w) extra gate on the receiving side (dualq)
    msg_node_proj: Tensor      # (d, 2d)
    msg_cmd_gate: Tensor       # (d, d_w)
    ctx_update: Tensor         # (d, 2d) maps [context; message] to new context
    att_q_proj: Tensor         # (d, d)
    att_node_proj: Tensor      # (d, 2d)
    att_score: Tensor          # (1, d)
    fusion: Tensor             # (d, 4d)

    @classmethod
    def init(cls, d: int, d_w: int, rng: np.random.Generator | None) -> "GraphParams":
        def u(rows, cols, gain=1.0):
            return T.parameter((rows, cols), rng, gain / np.sqrt(cols))

        # the edge projections feed a product of two projected node sets;
        # plain 1/sqrt(fan-in) leaves the adjacency so close to zero that
        # early top-K routing is pure noise, hence the larger gain
        return cls(
            edge_dst_proj=u(d, 2 * d, gain=4.0),
            edge_src_proj=u(d, 2 * d, gain=4.0),
            edge_cmd_gate=u(d, d_w, gain=4.0),
            edge_dst_cmd_gate=u(d, d_w, gain=4.0),
            msg_node_proj=u(d, 2 * d),
            msg_cmd_gate=u(d, d_w),
            ctx_update=u(d, 2 * d),
            att_q_proj=u(d, d),
            att_node_proj=u(d, 2 * d),
            att_score=u(1, d),
            fusion=u(d, 4 * d),
        )

    def named(self, prefix: str = "graph"):
        for f_ in fields(self):
            yield f"{prefix}.{f_.name}", getattr(self, f_.name)


@dataclass
class GraphState:
    """Node matrix at step t (the step's edge data lives in :class:`StepRecord`)."""

    step: int
    nodes: Tensor  # (2d, n)


@dataclass
class StepRecord:
    """One inference step's arrays, for trace export.

    These are the arrays the step computed, not copies. That is safe
    because nothing writes an intermediate array in place: the optimizer
    writes only parameter arrays, and no record holds one.
    """

    step: int
    alpha_q: np.ndarray
    adjacency: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    messages: np.ndarray
    nodes_after: np.ndarray


@dataclass
class AttentionTrace:
    steps: list[StepRecord]
    alpha_h: np.ndarray | None  # None under no_u: no history attention
    alpha_g: np.ndarray


# ---------------------------------------------------------------------------
# per-step operations
# ---------------------------------------------------------------------------


def init_graph(visual: Tensor, context: Tensor) -> GraphState:
    """Step-1 graph: every node column is [v_i; u]."""
    n = visual.data.shape[1]
    return GraphState(step=1, nodes=T.concat([visual, T.broadcast_cols(context, n)], axis=0))


def adjacency(nodes: Tensor, command: Tensor, params: GraphParams,
              variant: str = "cag") -> Tensor:
    """Directed adjacency (n, n): row i holds the weights of edges into node i.

    The question command gates the distributing side; the dualq variant
    gates both sides symmetrically. The diagonal is not masked: self-edges
    compete for selection like any other edge.
    """
    n = nodes.data.shape[1]
    src = (params.edge_src_proj @ nodes) * T.broadcast_cols(
        params.edge_cmd_gate @ command, n)
    dst = params.edge_dst_proj @ nodes
    if variant == "dualq":
        dst = dst * T.broadcast_cols(params.edge_dst_cmd_gate @ command, n)
    elif variant != "cag":
        raise ValueError(f"unknown variant {variant!r}")
    return T.transpose(dst) @ src


def select_neighbors(adj: np.ndarray, k: int) -> np.ndarray:
    """Row-independent top-K selection: neighbors[i] are the indices of the
    K strongest incoming edges of node i. Rows are independent, so the
    structure is an asymmetric directed graph.

    Row i equals ``T.topk_indices(adj[i], min(k, n))``: a stable sort of the
    negated row puts larger values first and ties in index order.
    """
    n = adj.shape[0]
    return np.sort(np.argsort(-adj, axis=1, kind="stable")[:, :min(k, n)], axis=1)


def message_passing(nodes: Tensor, adj: Tensor, neighbors: np.ndarray,
                    command: Tensor, params: GraphParams
                    ) -> tuple[Tensor, np.ndarray, Tensor]:
    """Aggregate command-gated messages from each node's selected neighbors.

    Returns (routing, weights, messages): routing is the (n, n) matrix of
    softmax-normalized edge weights with zeros off the selected entries,
    weights is its (n, K) compaction, and messages is (d, n) with column i
    the weighted sum over selected in-neighbors of node i.
    """
    n = nodes.data.shape[1]
    mask = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), neighbors.shape[1])
    mask[rows, neighbors.reshape(-1)] = True
    routing = T.masked_softmax(adj, mask, axis=1)
    per_node = (params.msg_node_proj @ nodes) * T.broadcast_cols(
        params.msg_cmd_gate @ command, n)
    messages = per_node @ T.transpose(routing)
    weights = routing.data[np.arange(n)[:, None], neighbors]
    return routing, weights, messages


def update_nodes(state: GraphState, messages: Tensor, params: GraphParams) -> GraphState:
    """Rewrite each node's context half from [old context; message]; the
    visual half passes through bitwise untouched."""
    two_d = state.nodes.data.shape[0]
    d = two_d // 2
    visual = T.take_rows(state.nodes, 0, d)
    ctx = T.take_rows(state.nodes, d, two_d)
    new_ctx = params.ctx_update @ T.concat([ctx, messages], axis=0)
    return GraphState(step=state.step + 1, nodes=T.concat([visual, new_ctx], axis=0))


CommandFn = Callable[[int], QuestionCommand]


def iterate(visual: Tensor, context: Tensor, command_fn: CommandFn,
            params: GraphParams, cfg: RunConfig,
            ) -> tuple[GraphState, list[StepRecord]]:
    """Run the inference loop: command -> adjacency -> top-K -> messages ->
    update, for ``cfg.effective_steps`` steps, recording each step.

    Zero steps returns the constructed graph untouched.
    """
    state = init_graph(visual, context)
    records: list[StepRecord] = []
    for _ in range(cfg.effective_steps):
        t = state.step
        cmd = command_fn(t)
        adj = adjacency(state.nodes, cmd.vector, params, cfg.variant)
        neighbors = select_neighbors(adj.data, cfg.k_neighbors)
        routing, weights, messages = message_passing(
            state.nodes, adj, neighbors, cmd.vector, params)
        state = update_nodes(state, messages, params)
        records.append(StepRecord(
            step=t,
            alpha_q=cmd.alpha.data.reshape(-1),
            adjacency=adj.data,
            neighbors=neighbors,
            weights=weights,
            messages=messages.data,
            nodes_after=state.nodes.data,
        ))
    return state, records


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------


def graph_attention(nodes: Tensor, q_sent: Tensor, params: GraphParams,
                    average_pool: bool = False, drop: Drop = _identity
                    ) -> tuple[Tensor, Tensor]:
    """Question-conditioned attention over final nodes -> (2d, 1) embedding:
    the history-attention head with the graph's own weights.

    ``average_pool`` (the no-graph-attention ablation) replaces the learned
    weights with a uniform 1/n combination.
    """
    if not average_pool:
        return history_attention(q_sent, nodes, params.att_q_proj,
                                 params.att_node_proj, params.att_score, drop)
    n = nodes.data.shape[1]
    alpha = T.constant(np.full((1, n), 1.0 / n))
    return nodes @ T.transpose(alpha), alpha


def fuse(graph_emb: Tensor, context: Tensor, q_sent: Tensor, params: GraphParams,
         drop: Drop = _identity) -> Tensor:
    """tanh(W [graph embedding; history context; question sentence]) -> (d, 1)."""
    return drop(T.tanh(params.fusion @ T.concat([graph_emb, context, q_sent], axis=0)))
