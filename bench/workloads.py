"""What the benchmark runs: the three workloads, the work each run does, and
the end-to-end metrics it reports.

Pure data and arithmetic; importing this module imports nothing from cag.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import min_samples

# The reference machine, a shared 2-core x86-64 VM, runs at two speeds about
# 1.8x apart, switching within a second and mixing in a share that drifts
# over minutes (CPU time tracks wall time, so this is not preemption). A
# median of calls flips between the speeds as that share crosses one half.
# Every bounded timing is therefore a 90th percentile over at least 100
# calls, which stays on the slower speed, present in every run measured.
TIMING_PERCENTILE = 90
# Timed calls per pass: each round makes one training.train call, one batch
# training.evaluate call and a share of the single-dialog calls, so that both
# speeds land in every phase alike. min_samples(90) = 100.
ROUNDS = min_samples(TIMING_PERCENTILE)
# Corpus set-ups, and checkpoint round trips spread over the rounds; set-up
# time is the median of each.
SETUP_REPEATS = 5

# Work sizes below are nominal for a run of this many seconds: on that
# machine, at its slower speed, each workload measures about this long, 40% training,
# 20% batch eval and 40% single-dialog calls. A run of S seconds scales them
# by S / NOMINAL_SECONDS, so the work is a function of the arguments alone
# and the losses and MRR stay exact for a fixed seed whatever the speed.
NOMINAL_SECONDS = 30

# Every workload uses these model settings (ROADMAP's LEARN_CONFIG widths).
MODEL = dict(d=64, d_w=32, d_v=16, dropout=0.3, lr=4e-4)
EPOCHS = 1
# The model seed is offset from the corpus seed so that dialog 0's generator
# stream ([seed, 0]) is not also the parameter-init stream.
MODEL_SEED_OFFSET = 1_000_000
# Percentile reported as the latency tail; the run makes at least
# min_samples(LATENCY_TAIL) single-dialog calls so that it is defined.
LATENCY_TAIL = 99


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_objects: int
    rounds: int            # dialog rounds, the final question included
    candidates: int
    k_neighbors: int
    steps: int
    n_train: int           # train dialogs per training.train call, at NOMINAL_SECONDS
    n_heldout: int         # held-out dialogs per evaluate call, at NOMINAL_SECONDS
    latency_calls: int     # single-dialog calls in all, at NOMINAL_SECONDS
    # Exact per-training-dialog call counts of the per-sequence encoder:
    # question + caption + (rounds - 1) history rounds + one per candidate
    # LSTM runs, and one history call plus one per candidate.
    lstm_calls: int
    history_calls: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="learn",
        why="ROADMAP reference: the acceptance gate's LEARN_CONFIG (K=4, T=3) on "
            "its corpus shape (6 objects, 4 rounds, 10 candidates); mixed LSTM, "
            "graph and backward cost",
        n_objects=6, rounds=4, candidates=10, k_neighbors=4, steps=3,
        n_train=5, n_heldout=10, latency_calls=1800,
        lstm_calls=15, history_calls=11),
    Workload(
        name="wide_graph",
        why="16 objects (generator maximum), K=8, T=8, 2 rounds, 4 candidates: "
            "graph inference is the largest forward share and LSTM runs drop to "
            "7 per dialog",
        n_objects=16, rounds=2, candidates=4, k_neighbors=8, steps=8,
        n_train=5, n_heldout=10, latency_calls=1600,
        lstm_calls=7, history_calls=5),
    Workload(
        name="long_dialog",
        why="10 rounds and 20 candidates (generator maxima), K=2, T=1: 31 LSTM "
            "runs per dialog, graph near 2%; most for the batch-eval candidate "
            "cache to save",
        n_objects=5, rounds=10, candidates=20, k_neighbors=2, steps=1,
        n_train=3, n_heldout=7, latency_calls=1050,
        lstm_calls=31, history_calls=21),
)}


@dataclass(frozen=True)
class Plan:
    """The work of one pass, derived from the workload and --seconds."""

    n_train: int
    n_heldout: int
    latency_calls: int


def plan_for(wl: Workload, seconds: float) -> Plan:
    scale = seconds / NOMINAL_SECONDS
    return Plan(
        n_train=max(1, round(wl.n_train * scale)),
        n_heldout=max(2, round(wl.n_heldout * scale)),
        latency_calls=max(min_samples(LATENCY_TAIL), round(wl.latency_calls * scale)),
    )


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "higher" or "lower"
    bound: float | None = None   # end-to-end only: allowed worsening share
    about: str = ""


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           "generate_corpus + save_corpus + load_split, plus one checkpoint "
           "save/load/build_model round trip and encode_instance of the held-out "
           "split; median of the repeats of each part"),
    Metric("train_dialogs_per_s", "1/s", "higher", 0.25,
           "epochs x train dialogs / p90 wall time of a training.train call "
           "(forward, backward and Adam, tape on)"),
    Metric("eval_dialogs_per_s", "1/s", "higher", 0.25,
           "held-out dialogs / p90 wall time of a training.evaluate call over the "
           "split (tape off, candidate cache shared within the call)"),
    Metric("dialog_latency_ms.p90", "ms", "lower", 0.25,
           "90th percentile (nearest rank) of evaluate(model, [dialog]) calls: one "
           "closed-loop caller, no cache reuse across calls"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "ru_maxrss of the benchmark process"),
]

# Printed and recorded with every untraced run, but not bounded, because
# their spread over seeds is wider than a bound can allow:
# - latency p50 flips between the machine's two speeds (3.7 vs 6.0 ms on learn,
#   IQR over ten seeds 48% of the median); p99 is set by a few bursts
#   (IQR 22-33%). p90 is the bounded latency;
# - after the few training steps a run can afford, the losses and MRR follow
#   each seed's initialisation and vocabulary coverage (IQR of train_loss 17%
#   and heldout_loss 12% on wide_graph, heldout_mrr 12-30%). They are exact
#   for a seed, so the same seed on two commits compares them bit for bit.
REPORTED = [
    Metric("dialog_latency_ms.p50", "ms", "lower", None,
           "median of the same single-dialog calls"),
    Metric(f"dialog_latency_ms.p{LATENCY_TAIL}", "ms", "lower", None,
           f"{LATENCY_TAIL}th percentile (nearest rank) of the same calls, of which "
           f"there are at least {min_samples(LATENCY_TAIL)}"),
    Metric("train_loss", "nats", "lower", None,
           "mean loss over the final epoch (TrainResult.log_rows); exact for a seed"),
    Metric("heldout_loss", "nats", "lower", None,
           "mean softmax cross-entropy of the batch-eval logits over the held-out "
           "split; exact for a seed"),
    Metric("heldout_mrr", "ratio", "higher", None,
           "MRR of the batch eval over the held-out split; exact for a seed"),
]
