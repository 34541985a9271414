"""Versioned checkpoint container: parameter tensors, vocab, the run
config (with its hash) and the lr-schedule scalars in one file.

The container is a custom length-prefixed binary layout rather than an
archive format: identical inputs produce identical bytes (no timestamps),
round-trips are bitwise for float64 arrays, and a trailing sha256 digest
catches truncation and corruption with a clean error.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .decoder import OptimState
from .encoders import Vocab
from .model import Model, ModelParams

MAGIC = b"CAGCKPT\x00"
FORMAT_VERSION = 3


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    """A loaded checkpoint. ``optim`` carries only the schedule scalars
    (``base_lr``, ``step_count``, ``epoch``); its Adam moments are empty,
    because the file does not store them."""

    params_state: dict[str, np.ndarray]
    optim: OptimState | None
    vocab: Vocab
    config: RunConfig


def _pack_array(name: str, data: np.ndarray) -> bytes:
    raw = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    name_b = name.encode()
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<B", data.ndim) + struct.pack(f"<{data.ndim}q", *data.shape)
    return head + struct.pack("<Q", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"corrupt or truncated checkpoint {self.path}: ran out of bytes")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def save_checkpoint(path, params_state: dict[str, np.ndarray],
                    optim: OptimState | None, vocab: Vocab,
                    config: RunConfig) -> None:
    meta = {
        "version": FORMAT_VERSION,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "vocab": vocab.id_to_token,
        "optim": None if optim is None else {
            "base_lr": optim.base_lr,
            "step_count": optim.step_count,
            "epoch": optim.epoch,
        },
    }
    meta_b = json.dumps(meta, sort_keys=True).encode()
    body = b"".join([
        MAGIC, struct.pack("<I", FORMAT_VERSION),
        struct.pack("<Q", len(meta_b)), meta_b,
        struct.pack("<I", len(params_state)),
        *(_pack_array(f"param:{name}", data) for name, data in params_state.items()),
    ])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 36 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"corrupt or truncated checkpoint {path}: bad magic")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(
            f"corrupt or truncated checkpoint {path}: sha256 digest mismatch")

    r = _Reader(body, path)
    r.take(len(MAGIC))
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format version {version} unsupported "
            f"(expected {FORMAT_VERSION})")
    (meta_len,) = r.unpack("<Q")
    try:
        meta = json.loads(r.take(meta_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path}: unreadable metadata: {exc}") from exc
    if meta.get("version") != version:
        raise CheckpointError(f"checkpoint {path}: metadata field version disagrees "
                              f"with container header")
    try:
        config = RunConfig.from_dict(meta["config"])
        vocab = Vocab(meta["vocab"])
        optim_meta = meta["optim"]
        if optim_meta is not None:
            optim_meta = {k: optim_meta[k] for k in ("base_lr", "step_count", "epoch")}
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path}: metadata lacks field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    if config.config_hash() != meta.get("config_hash"):
        raise CheckpointError(
            f"checkpoint {path}: config hash mismatch (stored config was altered)")

    (count,) = r.unpack("<I")
    params_state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        key = r.take(name_len).decode()
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}q") if ndim else ()
        (data_len,) = r.unpack("<Q")
        data = np.frombuffer(r.take(data_len), dtype=np.float64).reshape(shape).copy()
        kind, _, name = key.partition(":")
        if kind != "param":
            raise CheckpointError(f"checkpoint {path}: unknown field {key}")
        params_state[name] = data

    optim = None if optim_meta is None else OptimState(**optim_meta)
    return Checkpoint(params_state, optim, vocab, config)


def build_model(ckpt: Checkpoint, extra_ablations: list[str] | None = None) -> Model:
    """Materialize a runnable model, validating every stored shape against
    the checkpoint's own config."""
    cfg = ckpt.config
    if extra_ablations:
        cfg = cfg.with_ablations(extra_ablations)
    params = ModelParams.init(cfg, len(ckpt.vocab), rng=None)
    try:
        params.load_state(ckpt.params_state)
    except ValueError as exc:
        raise CheckpointError(
            f"{exc} (checkpoint dims: d={cfg.d}, d_w={cfg.d_w}, d_v={cfg.d_v}, "
            f"steps={cfg.steps}, vocab={len(ckpt.vocab)})") from exc
    return Model(params, cfg)
