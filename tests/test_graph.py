import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cag import tensor as T
from cag.config import RunConfig
from cag.encoders import QuestionCommand
from cag.gradcheck import finite_diff_check
from cag.graph import (
    GraphParams,
    adjacency,
    fuse,
    graph_attention,
    init_graph,
    iterate,
    message_passing,
    select_neighbors,
    update_nodes,
)
from cag.tensor import Tensor, constant

D, DW = 4, 3


def np_softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20)


@pytest.fixture
def params(rng):
    return GraphParams.init(D, DW, rng)


def make_commands(rng, steps, d_w=DW, m=3):
    alpha = np.full((1, m), 1.0 / m)
    return [QuestionCommand(constant(alpha), constant(rng.normal(size=(d_w, 1))))
            for _ in range(steps)]


def topk_oracle(row, k):
    """Full sort by (value descending, index ascending), first k, by index."""
    return sorted(sorted(range(len(row)), key=lambda i: (-row[i], i))[:k])


class TestInitGraph:
    def test_single_node_is_stacked_pair(self, rng):
        v = rng.normal(size=(D, 1))
        u = rng.normal(size=(D, 1))
        nodes = init_graph(constant(v), constant(u))
        np.testing.assert_array_equal(nodes.data, np.vstack([v, u]))

    def test_shape_contract(self, rng):
        nodes = init_graph(constant(rng.normal(size=(D, 6))), constant(rng.normal(size=(D, 1))))
        assert nodes.data.shape == (2 * D, 6)

    def test_empty_graph_rejected(self, rng):
        with pytest.raises(T.ShapeError):
            init_graph(constant(np.zeros((D, 0))), constant(np.zeros((D, 1))))


class TestAdjacency:
    def test_degenerate_single_node(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 1))), constant(rng.normal(size=(D, 1))))
        adj = adjacency(nodes, constant(rng.normal(size=(DW, 1))), params)
        assert adj.data.shape == (1, 1)

    def test_generally_asymmetric(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 5))), constant(rng.normal(size=(D, 1))))
        adj = adjacency(nodes, constant(rng.normal(size=(DW, 1))), params)
        assert np.abs(adj.data - adj.data.T).max() > 0

    def test_zero_command_annihilates(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 4))), constant(rng.normal(size=(D, 1))))
        adj = adjacency(nodes, constant(np.zeros((DW, 1))), params)
        np.testing.assert_array_equal(adj.data, np.zeros((4, 4)))

    def test_matches_direct_evaluation(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 4))), constant(rng.normal(size=(D, 1))))
        cmd = rng.normal(size=(DW, 1))
        adj = adjacency(nodes, constant(cmd), params)
        N = nodes.data
        gate = params.edge_cmd_gate.data @ cmd
        expected = (params.edge_dst_proj.data @ N).T @ ((params.edge_src_proj.data @ N) * gate)
        np.testing.assert_allclose(adj.data, expected, rtol=1e-12)

    def test_dualq_with_unit_gate_reduces_to_one_sided_form(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 4))), constant(rng.normal(size=(D, 1))))
        cmd = rng.normal(size=(DW, 1))
        # receiving-side gate forced to the all-ones vector
        params.edge_dst_cmd_gate.data = np.ones((D, 1)) @ cmd.T / (cmd.ravel() @ cmd.ravel())
        dual = adjacency(nodes, constant(cmd), params, variant="dualq")
        N = nodes.data
        gate = params.edge_cmd_gate.data @ cmd
        closed_form = (params.edge_dst_proj.data @ N).T @ ((params.edge_src_proj.data @ N) * gate)
        np.testing.assert_allclose(dual.data, closed_form, rtol=1e-10)

    def test_dualq_gates_both_sides(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 4))), constant(rng.normal(size=(D, 1))))
        cmd = rng.normal(size=(DW, 1))
        dual = adjacency(nodes, constant(cmd), params, variant="dualq")
        N = nodes.data
        left = (params.edge_dst_proj.data @ N) * (params.edge_dst_cmd_gate.data @ cmd)
        right = (params.edge_src_proj.data @ N) * (params.edge_cmd_gate.data @ cmd)
        np.testing.assert_allclose(dual.data, left.T @ right, rtol=1e-12)


class TestSelectNeighbors:
    def test_full_selection(self):
        adj = np.random.default_rng(0).normal(size=(4, 4))
        nb = select_neighbors(adj, 4)
        for row in nb:
            np.testing.assert_array_equal(row, np.arange(4))

    def test_known_row(self):
        nb = select_neighbors(np.array([[0.9, 0.1, 0.5]] * 3), 2)
        np.testing.assert_array_equal(nb[0], [0, 2])

    def test_neighborhoods_are_directed(self):
        # j in S_i does not imply i in S_j
        adj = np.random.default_rng(4).normal(size=(4, 4))
        nb = select_neighbors(adj, 2)
        witnessed = False
        for i in range(4):
            for j in nb[i]:
                if i not in nb[j]:
                    witnessed = True
        assert witnessed

    def test_k_clamped_to_n(self):
        nb = select_neighbors(np.zeros((3, 3)), 8)
        assert nb.shape == (3, 3)

    # a few repeated values (0.0 and -0.0 compare equal) make ties common
    @settings(max_examples=300, deadline=None)
    @given(adj=st.integers(1, 16).flatmap(lambda n: arrays(
        np.float64, (n, n), elements=st.sampled_from([-1.0, -0.0, 0.0, 2.0])
        | st.floats(-5, 5))), k=st.integers(1, 20))
    @example(adj=np.array([[-0.0]]), k=3)
    @example(adj=np.array([[0.0, -0.0, 0.0], [-0.0, 1.0, -0.0], [2.0, 2.0, 2.0]]), k=2)
    def test_matches_per_row_topk(self, adj, k):
        n = adj.shape[0]
        expected = np.array([topk_oracle(list(adj[i]), k) for i in range(n)])
        got = select_neighbors(adj, k)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, expected)

    def test_tie_breaks_to_lowest_index(self):
        nb = select_neighbors(np.array([[5.0, 5.0, 1.0]] * 3), 1)
        np.testing.assert_array_equal(nb, [[0]] * 3)

    def test_agrees_with_brute_force_on_1000_rows_with_duplicates(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 16))
            # low-cardinality values force duplicates
            row = rng.integers(0, 4, size=n).astype(float)
            k = int(rng.integers(1, n + 1))
            np.testing.assert_array_equal(select_neighbors(np.tile(row, (n, 1)), k),
                                          [topk_oracle(list(row), k)] * n)


class TestMessagePassing:
    def _nodes(self, rng, n):
        return init_graph(constant(rng.normal(size=(D, n))), constant(rng.normal(size=(D, 1))))

    def test_single_neighbor_weight_is_one(self, rng, params):
        nodes = self._nodes(rng, 3)
        cmd = constant(rng.normal(size=(DW, 1)))
        adj = adjacency(nodes, cmd, params)
        nb = select_neighbors(adj.data, 1)
        routing, weights, messages = message_passing(nodes, adj, nb, cmd, params)
        np.testing.assert_allclose(weights, np.ones((3, 1)))
        per_node = (params.msg_node_proj.data @ nodes.data) * (
            params.msg_cmd_gate.data @ cmd.data)
        for i in range(3):
            np.testing.assert_allclose(messages.data[:, i], per_node[:, nb[i, 0]], rtol=1e-12)

    def test_weights_rows_sum_to_one(self, rng, params):
        nodes = self._nodes(rng, 5)
        cmd = constant(rng.normal(size=(DW, 1)))
        adj = adjacency(nodes, cmd, params)
        nb = select_neighbors(adj.data, 3)
        _, weights, _ = message_passing(nodes, adj, nb, cmd, params)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(5), atol=1e-12)

    def test_matches_direct_evaluation_n3_k2(self, rng, params):
        nodes = self._nodes(rng, 3)
        cmd = constant(rng.normal(size=(DW, 1)))
        adj = adjacency(nodes, cmd, params)
        nb = select_neighbors(adj.data, 2)
        _, weights, messages = message_passing(nodes, adj, nb, cmd, params)

        per_node = (params.msg_node_proj.data @ nodes.data) * (
            params.msg_cmd_gate.data @ cmd.data)
        for i in range(3):
            sel = adj.data[i, nb[i]]
            e = np.exp(sel - sel.max())
            b = e / e.sum()
            np.testing.assert_allclose(weights[i], b, rtol=1e-12)
            expected = sum(b[j] * per_node[:, nb[i, j]] for j in range(2))
            np.testing.assert_allclose(messages.data[:, i], expected, rtol=1e-12)


class TestUpdateNodes:
    def test_identity_block_keeps_context(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 3))), constant(rng.normal(size=(D, 1))))
        params.ctx_update.data = np.hstack([np.eye(D), np.zeros((D, D))])
        nxt = update_nodes(nodes, constant(np.zeros((D, 3))), params)
        np.testing.assert_array_equal(nxt.data, nodes.data)

    def test_visual_half_bitwise_unchanged(self, rng, params):
        v = rng.normal(size=(D, 4))
        nodes = init_graph(constant(v), constant(rng.normal(size=(D, 1))))
        nxt = update_nodes(nodes, constant(rng.normal(size=(D, 4))), params)
        assert np.array_equal(nxt.data[:D], v)

    def test_matches_direct_evaluation(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 3))), constant(rng.normal(size=(D, 1))))
        msgs = rng.normal(size=(D, 3))
        nxt = update_nodes(nodes, constant(msgs), params)
        expected = params.ctx_update.data @ np.vstack([nodes.data[D:], msgs])
        np.testing.assert_allclose(nxt.data[D:], expected, rtol=1e-12)


class TestIterate:
    def test_zero_steps_returns_constructed_graph(self, rng, params):
        v = constant(rng.normal(size=(D, 4)))
        u = constant(rng.normal(size=(D, 1)))
        flags = RunConfig(k_neighbors=2, steps=0)
        nodes, records = iterate(v, u, [], params, flags)
        np.testing.assert_array_equal(nodes.data, init_graph(v, u).data)
        assert records == []

    def test_records_number_steps_from_one(self, rng, params):
        v = constant(rng.normal(size=(D, 4)))
        u = constant(rng.normal(size=(D, 1)))
        flags = RunConfig(k_neighbors=2, steps=3)
        _, records = iterate(v, u, make_commands(rng, 3), params, flags)
        assert [r.step for r in records] == [1, 2, 3]

    def test_single_step_equals_manual_composition(self, rng, params):
        v = constant(rng.normal(size=(D, 4)))
        u = constant(rng.normal(size=(D, 1)))
        commands = make_commands(rng, 1)
        flags = RunConfig(k_neighbors=2, steps=1)
        nodes, _ = iterate(v, u, commands, params, flags)

        manual = init_graph(v, u)
        cmd = commands[0]
        adj = adjacency(manual, cmd.vector, params)
        nb = select_neighbors(adj.data, 2)
        _, _, messages = message_passing(manual, adj, nb, cmd.vector, params)
        manual = update_nodes(manual, messages, params)
        assert np.array_equal(nodes.data, manual.data)

    def test_visual_block_fixed_across_steps(self, rng, params):
        v = rng.normal(size=(D, 5))
        flags = RunConfig(k_neighbors=2, steps=3)
        nodes, records = iterate(constant(v), constant(rng.normal(size=(D, 1))),
                                 make_commands(rng, 3), params, flags)
        assert np.array_equal(nodes.data[:D], v)
        for rec in records:
            assert np.array_equal(rec.nodes_after[:D], v)

    def test_shared_weights_touch_every_step(self, rng, params):
        v = constant(rng.normal(size=(D, 5)))
        u = constant(rng.normal(size=(D, 1)))
        commands = make_commands(rng, 2)
        flags = RunConfig(k_neighbors=2, steps=2)
        _, base = iterate(v, u, commands, params, flags)
        params.msg_node_proj.data = params.msg_node_proj.data + 0.05
        _, bumped = iterate(v, u, commands, params, flags)
        for t in range(2):
            assert not np.array_equal(base[t].messages, bumped[t].messages)

    def test_degenerate_k_equals_dense_attention(self, rng, params):
        n = 5
        v = constant(rng.normal(size=(D, n)))
        u = constant(rng.normal(size=(D, 1)))
        commands = make_commands(rng, 1)
        flags = RunConfig(k_neighbors=n, steps=1)
        _, records = iterate(v, u, commands, params, flags)

        nodes = init_graph(v, u)
        cmd = commands[0].vector.data
        N = nodes.data
        gate = params.edge_cmd_gate.data @ cmd
        A = (params.edge_dst_proj.data @ N).T @ ((params.edge_src_proj.data @ N) * gate)
        dense = np_softmax_rows(A)
        per_node = (params.msg_node_proj.data @ N) * (params.msg_cmd_gate.data @ cmd)
        expected = per_node @ dense.T
        assert np.abs(records[0].messages - expected).max() < 1e-10

    def test_permutation_equivariance(self, rng, params):
        n = 5
        v = rng.normal(size=(D, n))
        u = constant(rng.normal(size=(D, 1)))
        q_sent = constant(rng.normal(size=(D, 1)))
        commands = make_commands(rng, 2)
        flags = RunConfig(k_neighbors=2, steps=2)

        def run(visual):
            nodes, records = iterate(constant(visual), u, commands, params, flags)
            emb, _ = graph_attention(nodes, q_sent, params)
            fused = fuse(emb, u, q_sent, params)
            return records, fused.data

        base_records, base_out = run(v)
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        perm_records, perm_out = run(v[:, perm])

        for rec_b, rec_p in zip(base_records, perm_records):
            np.testing.assert_allclose(
                rec_p.adjacency, rec_b.adjacency[np.ix_(perm, perm)], atol=1e-9)
            for i in range(n):
                np.testing.assert_array_equal(
                    rec_p.neighbors[i], np.sort(inv[rec_b.neighbors[perm[i]]]))
        np.testing.assert_allclose(perm_out, base_out, atol=1e-9)


class TestGraphAttention:
    def test_single_node_passthrough(self, rng, params):
        nodes = init_graph(constant(rng.normal(size=(D, 1))), constant(rng.normal(size=(D, 1))))
        emb, alpha = graph_attention(nodes, constant(rng.normal(size=(D, 1))), params)
        np.testing.assert_allclose(alpha.data, [[1.0]])
        np.testing.assert_allclose(emb.data, nodes.data)

    def test_identical_nodes_give_common_node(self, rng, params):
        col = rng.normal(size=(2 * D, 1))
        nodes = constant(np.repeat(col, 4, axis=1))
        emb, _ = graph_attention(nodes, constant(rng.normal(size=(D, 1))), params)
        np.testing.assert_allclose(emb.data, col, rtol=1e-12)

    def test_average_pool_ablation(self, rng, params):
        nodes = constant(rng.normal(size=(2 * D, 5)))
        emb, alpha = graph_attention(nodes, constant(rng.normal(size=(D, 1))), params,
                                     average_pool=True)
        np.testing.assert_allclose(alpha.data, np.full((1, 5), 0.2))
        np.testing.assert_allclose(emb.data[:, 0], nodes.data.mean(axis=1), rtol=1e-12)


class TestFuse:
    def test_zero_map(self, rng, params):
        params.fusion.data = np.zeros_like(params.fusion.data)
        out = fuse(constant(rng.normal(size=(2 * D, 1))), constant(rng.normal(size=(D, 1))),
                   constant(rng.normal(size=(D, 1))), params)
        np.testing.assert_array_equal(out.data, np.zeros((D, 1)))

    def test_bounded_by_tanh(self, rng, params):
        out = fuse(constant(10 * rng.normal(size=(2 * D, 1))),
                   constant(10 * rng.normal(size=(D, 1))),
                   constant(10 * rng.normal(size=(D, 1))), params)
        assert np.abs(out.data).max() < 1.0

    def test_matches_direct_evaluation(self, rng, params):
        e_g = rng.normal(size=(2 * D, 1))
        u = rng.normal(size=(D, 1))
        q = rng.normal(size=(D, 1))
        out = fuse(constant(e_g), constant(u), constant(q), params)
        expected = np.tanh(params.fusion.data @ np.vstack([e_g, u, q]))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_graph_params_gradients(rng, params):
    """Loss through the full graph pipeline gradchecks for every graph weight."""
    v = Tensor(rng.normal(size=(D, 4)), requires_grad=True)
    u = Tensor(rng.normal(size=(D, 1)), requires_grad=True)
    q_sent = constant(rng.normal(size=(D, 1)))
    cmd_vecs = [Tensor(rng.normal(size=(DW, 1)), requires_grad=True) for _ in range(2)]
    flags = RunConfig(k_neighbors=2, steps=2)
    weights = constant(rng.normal(size=(D, 1)))

    commands = [QuestionCommand(constant(np.ones((1, 1))), vec) for vec in cmd_vecs]

    def loss():
        nodes, _ = iterate(v, u, commands, params, flags)
        emb, _ = graph_attention(nodes, q_sent, params)
        return T.mul(fuse(emb, u, q_sent, params), weights).sum()

    checked = list(params.named()) + [("visual", v), ("context", u),
                                      ("cmd1", cmd_vecs[0]), ("cmd2", cmd_vecs[1])]
    report = finite_diff_check(loss, checked, step=1e-5, tol=1e-4)
    assert report.passed, report.summary()
