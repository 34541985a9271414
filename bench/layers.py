"""Per-layer measurement: where the traced run wraps cag, and how the spans
become the per-layer metrics.

Each public function is wrapped under the name its caller resolves at call
time (``cag.model.encode_history`` is what ``Model.forward`` calls, not
``cag.encoders.encode_history``), so the wrappers sit on the real call sites.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass

from spans import END, NAME, PARENT, START, Recorder, self_times
from workloads import Metric

# (module, attribute path, span name). The benchmark itself calls
# training.train/evaluate, synthdial.* and checkpoint.* through their modules,
# so those wrappers also time the benchmark's own calls.
TARGETS = [
    ("cag.synthdial", "generate_corpus", "synthdial.generate_corpus"),
    ("cag.synthdial", "save_corpus", "synthdial.save_corpus"),
    ("cag.synthdial", "load_split", "synthdial.load_split"),
    ("cag.training", "train", "training.train"),
    ("cag.training", "evaluate", "training.evaluate"),
    ("cag.training", "encode_instance", "model.encode_instance"),
    ("cag.model", "encode_instance", "model.encode_instance"),
    ("cag.training", "npair_loss", "decoder.npair_loss"),
    ("cag.training", "adam_step", "decoder.adam_step"),
    ("cag.tensor", "backward", "tensor.backward"),
    ("cag.model", "Model.forward", "model.forward"),
    ("cag.model", "encode_question", "encoders.encode_question"),
    ("cag.model", "encode_history", "encoders.encode_history"),
    ("cag.encoders", "lstm_encode", "encoders.lstm_encode"),
    ("cag.model", "history_attention", "encoders.history_attention"),
    ("cag.model", "question_command", "encoders.question_command"),
    ("cag.model", "iterate", "graph.iterate"),
    ("cag.graph", "adjacency", "graph.adjacency"),
    ("cag.graph", "select_neighbors", "graph.select_neighbors"),
    ("cag.graph", "message_passing", "graph.message_passing"),
    ("cag.graph", "update_nodes", "graph.update_nodes"),
    ("cag.model", "graph_attention", "graph.graph_attention"),
    ("cag.model", "fuse", "graph.fuse"),
    ("cag.model", "score_candidates", "decoder.score_candidates"),
    ("cag.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("cag.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("cag.checkpoint", "build_model", "checkpoint.build_model"),
]


def tape_size(loss) -> int:
    """Tensors reachable from ``loss`` through recorded parents: the tape
    ``backward`` is about to walk."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class LayerRecorder(Recorder):
    """Recorder plus the counts taken at layer boundaries."""

    def __init__(self) -> None:
        super().__init__()
        self.tape_nodes: list[int] = []
        self.adam_rejected = 0

    def hooks(self, span_name: str) -> dict:
        if span_name in ("model.forward", "model.encode_instance"):
            return {"before": self._set_dialog_from_enc}
        if span_name == "tensor.backward":
            return {"before": lambda args, kw: self.tape_nodes.append(tape_size(args[0]))}
        if span_name == "decoder.adam_step":
            return {"after": self._count_rejected}
        return {}

    def _set_dialog_from_enc(self, args, kwargs) -> None:
        # Model.forward(self, enc, ...) and encode_instance(inst, vocab)
        item = args[1] if hasattr(args[0], "params") else args[0]
        self.dialog = item.dialog_id

    def _count_rejected(self, ok) -> None:
        if ok is False:
            self.adam_rejected += 1


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


@contextmanager
def installed(rec: LayerRecorder):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, rec.wrap(name, orig, **rec.hooks(name)))
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric(Metric):
    moves: str = ""


_T = "train_dialogs_per_s"
_E = "eval_dialogs_per_s"
_L = "dialog_latency_ms.p90"
_ALL = f"{_T}, {_E}, {_L}"

PER_LAYER = [
    LayerMetric("encoders.lstm_encode.ms", "ms", "lower",
                about="per call, training", moves=f"{_T}, {_L} on long_dialog, then learn"),
    LayerMetric("encoders.lstm_encode.calls", "count", "lower",
                about="per training dialog", moves=f"{_T}, {_L} on long_dialog, then learn"),
    LayerMetric("encoders.encode_question.ms", "ms", "lower",
                about="per call, training", moves=f"{_T}, {_L} on long_dialog, then learn"),
    LayerMetric("encoders.encode_history.ms", "ms", "lower",
                about="per call, training", moves=f"{_T}, {_L} on long_dialog, then learn"),
    LayerMetric("encoders.encode_history.calls", "count", "lower",
                about="per training dialog", moves=f"{_T}, {_L} on long_dialog, then learn"),
    LayerMetric("encoders.history_attention.ms", "ms", "lower",
                about="per call, training", moves=f"{_T}, {_L} on long_dialog, then learn"),
    LayerMetric("encoders.question_command.ms", "ms", "lower",
                about="per call, training", moves=f"{_T} on wide_graph (one per step)"),
    LayerMetric("encoders.candidate_cache.hit_ratio", "ratio", "higher",
                about="batch eval: 1 - (encode_history calls - dialogs) / (dialogs x C)",
                moves=f"{_E} on long_dialog; little elsewhere"),
    LayerMetric("graph.iterate.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.iterate.self_ms", "ms", "lower",
                about="per call minus wrapped children, training",
                moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.adjacency.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.select_neighbors.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.message_passing.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.update_nodes.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.graph_attention.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("graph.fuse.ms", "ms", "lower",
                about="per call, training", moves=f"{_ALL} on wide_graph; ~0 on long_dialog"),
    LayerMetric("model.forward.ms", "ms", "lower",
                about="per call, training (tape on)", moves=f"{_ALL} on every workload"),
    LayerMetric("model.forward.nograd_ms", "ms", "lower",
                about="per call, batch eval (tape off, cache on)", moves=f"{_E}, {_L} on every workload"),
    LayerMetric("model.forward.self_ms", "ms", "lower",
                about="per call minus wrapped children, training", moves=f"{_ALL} on every workload"),
    LayerMetric("model.encode_instance.ms", "ms", "lower",
                about="per call, held-out encoding in set-up", moves="setup_s on every workload"),
    LayerMetric("tensor.backward.ms", "ms", "lower",
                about="per call, training; not split by layer", moves=f"{_T} on all, most on long_dialog"),
    LayerMetric("tensor.tape_nodes", "count", "lower",
                about="tensors reachable from the loss, per training dialog (median)",
                moves=f"{_T} on all, most on long_dialog"),
    LayerMetric("decoder.score_candidates.ms", "ms", "lower",
                about="per call, training", moves=f"{_T} on every workload"),
    LayerMetric("decoder.npair_loss.ms", "ms", "lower",
                about="per call, training", moves=f"{_T} on every workload"),
    LayerMetric("decoder.adam_step.ms", "ms", "lower",
                about="per call, training", moves=f"{_T}; costs the same on every workload"),
    LayerMetric("decoder.adam_step.rejected", "count", "lower",
                about="adam_step calls returning False (non-finite gradient)",
                moves="counted in failed/attempted"),
    LayerMetric("training.train.self_ms", "ms", "lower",
                about="train span minus wrapped children, per dialog-epoch", moves=f"{_T}"),
    LayerMetric("training.evaluate.self_ms", "ms", "lower",
                about="evaluate span minus wrapped children, per dialog (batch eval)", moves=f"{_E}"),
    LayerMetric("synthdial.generate_corpus.s", "s", "lower",
                about="per set-up repeat", moves="setup_s"),
    LayerMetric("synthdial.corpus_io.s", "s", "lower",
                about="save_corpus plus both load_split calls, per set-up repeat", moves="setup_s"),
    LayerMetric("checkpoint.save_ms", "ms", "lower", about="per call", moves="setup_s"),
    LayerMetric("checkpoint.load_ms", "ms", "lower", about="per call", moves="setup_s"),
    LayerMetric("checkpoint.bytes", "bytes", "lower", about="checkpoint file size", moves="setup_s"),
    LayerMetric("tracing.train_overhead_pct", "%", "lower",
                about="traced vs untraced train_dialogs_per_s (time per dialog)", moves="none"),
    LayerMetric("tracing.eval_overhead_pct", "%", "lower",
                about="traced vs untraced eval_dialogs_per_s (time per dialog)", moves="none"),
    LayerMetric("tracing.latency_overhead_pct", "%", "lower",
                about="traced vs untraced dialog_latency_ms.p90", moves="none"),
]


class Analysis:
    """Spans of one traced pass, indexed by phase and by enclosing forward."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.self_s = self_times(spans)
        # phase: name of the outermost span; forward: nearest model.forward
        self.phase: list[str] = []
        self.forward: list[int | None] = []
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
            p = s[PARENT]
            if p is None:
                self.phase.append(s[NAME])
                self.forward.append(None)
            else:
                self.phase.append(self.phase[p])
                self.forward.append(p if spans[p][NAME] == "model.forward"
                                    else self.forward[p])

    def indices(self, name: str | None, phase: str | None = None) -> list[int]:
        """Spans called ``name`` (any name if None) inside ``phase``."""
        idx = range(len(self.spans)) if name is None else self.by_name.get(name, [])
        return [i for i in idx if phase is None or self.phase[i] == phase]

    def seconds(self, name: str | None, phase: str | None = None) -> list[float]:
        return [self.spans[i][END] - self.spans[i][START]
                for i in self.indices(name, phase)]

    def ms(self, name: str, phase: str | None = "train") -> float | None:
        durations = self.seconds(name, phase)
        return 1e3 * statistics.median(durations) if durations else None

    def self_ms(self, name: str, phase: str | None = "train") -> float | None:
        idx = self.indices(name, phase)
        return statistics.median(1e3 * self.self_s[i] for i in idx) if idx else None

    def calls_per_forward(self, name: str, phase: str) -> list[int]:
        """Calls of ``name`` under each model.forward of ``phase``."""
        counts = {i: 0 for i in self.indices("model.forward", phase)}
        for i in self.indices(name, phase):
            f = self.forward[i]
            if f is not None:
                counts[f] += 1
        return list(counts.values())


def compute(a: Analysis, rec: LayerRecorder, info: dict, traced: dict,
            untraced: dict) -> dict:
    """Per-layer metric values; a metric whose span never fired is None.

    ``info`` carries the pass's sizes: n_train, n_heldout, epochs, candidates.
    ``traced``/``untraced`` are the two passes' end-to-end values.
    """
    out: dict[str, float | None] = {}

    def per_dialog(name):
        counts = a.calls_per_forward(name, "train")
        return statistics.median(counts) if counts and any(counts) else None

    for short in ("lstm_encode", "encode_question", "encode_history",
                  "history_attention", "question_command"):
        out[f"encoders.{short}.ms"] = a.ms(f"encoders.{short}")
    out["encoders.lstm_encode.calls"] = per_dialog("encoders.lstm_encode")
    out["encoders.encode_history.calls"] = per_dialog("encoders.encode_history")
    eval_hist = a.calls_per_forward("encoders.encode_history", "eval")
    if eval_hist and any(eval_hist):
        dialogs = len(eval_hist)
        out["encoders.candidate_cache.hit_ratio"] = 1 - (sum(eval_hist) - dialogs) / (
            dialogs * info["candidates"])
    else:
        out["encoders.candidate_cache.hit_ratio"] = None

    for short in ("iterate", "adjacency", "select_neighbors", "message_passing",
                  "update_nodes", "graph_attention", "fuse"):
        out[f"graph.{short}.ms"] = a.ms(f"graph.{short}")
    out["graph.iterate.self_ms"] = a.self_ms("graph.iterate")

    out["model.forward.ms"] = a.ms("model.forward")
    out["model.forward.nograd_ms"] = a.ms("model.forward", "eval")
    out["model.forward.self_ms"] = a.self_ms("model.forward")
    out["model.encode_instance.ms"] = a.ms("model.encode_instance", "checkpoint")

    out["tensor.backward.ms"] = a.ms("tensor.backward")
    out["tensor.tape_nodes"] = statistics.median(rec.tape_nodes) if rec.tape_nodes else None

    for short in ("score_candidates", "npair_loss", "adam_step"):
        out[f"decoder.{short}.ms"] = a.ms(f"decoder.{short}")
    out["decoder.adam_step.rejected"] = (
        rec.adam_rejected if a.indices("decoder.adam_step") else None)

    train_self = a.self_ms("training.train")
    out["training.train.self_ms"] = (
        None if train_self is None else train_self / (info["epochs"] * info["n_train"]))
    eval_self = a.self_ms("training.evaluate", "eval")
    out["training.evaluate.self_ms"] = (
        None if eval_self is None else eval_self / info["n_heldout"])

    gen = a.seconds("synthdial.generate_corpus", "setup")
    io = [d for i, d in zip(a.indices(None, "setup"), a.seconds(None, "setup"))
          if a.spans[i][NAME] in ("synthdial.save_corpus", "synthdial.load_split")]
    out["synthdial.generate_corpus.s"] = statistics.median(gen) if gen else None
    if gen and io:
        # each set-up repeat makes the same I/O calls, in the same order
        per_rep = len(io) // len(gen)
        out["synthdial.corpus_io.s"] = statistics.median(
            sum(io[r * per_rep:(r + 1) * per_rep]) for r in range(len(gen)))
    else:
        out["synthdial.corpus_io.s"] = None

    out["checkpoint.save_ms"] = a.ms("checkpoint.save", "checkpoint")
    out["checkpoint.load_ms"] = a.ms("checkpoint.load", "checkpoint")
    out["checkpoint.bytes"] = info["checkpoint_bytes"] if a.indices("checkpoint.save") else None

    def overhead(key, higher_is_better):
        t, u = traced[key], untraced[key]
        return 100 * ((u / t - 1) if higher_is_better else (t / u - 1))

    out["tracing.train_overhead_pct"] = overhead("train_dialogs_per_s", True)
    out["tracing.eval_overhead_pct"] = overhead("eval_dialogs_per_s", True)
    out["tracing.latency_overhead_pct"] = overhead("dialog_latency_ms.p90", False)
    return out


def count_gate(a: Analysis, lstm_calls: int, history_calls: int) -> list[str]:
    """Problems with the exact per-dialog call counts of the training phase;
    empty when every training dialog made exactly the expected calls."""
    problems = []
    for name, want in (("encoders.lstm_encode", lstm_calls),
                       ("encoders.encode_history", history_calls)):
        counts = a.calls_per_forward(name, "train")
        if not counts:
            problems.append(f"no training forward recorded for {name}")
        elif set(counts) != {want}:
            problems.append(f"{name}: calls per training dialog {sorted(set(counts))}, "
                            f"expected exactly {want}")
    return problems
