"""Versioned checkpoint container: parameter tensors, vocab, the run
config (with its hash) and the lr-schedule scalars in one file.

Layout: magic, a little-endian u32 format version, a u64 metadata length,
the metadata JSON, the parameter arrays as little-endian float64 bytes,
and the sha256 digest of everything before it. The metadata's ``params``
list of ``[name, shape]`` is the only description of the arrays, in the
order their bytes follow. Identical inputs produce identical bytes (no
timestamps), round-trips are bitwise, and the digest catches truncation
and corruption with a clean error. Loading refuses a parameter array that
holds a NaN or an infinity, so no command runs a model on one. The file is
written atomically.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, atomic_open
from .decoder import OptimState
from .encoders import Vocab
from .model import Model, ModelParams

MAGIC = b"CAGCKPT\x00"
FORMAT_VERSION = 4
_HEAD = struct.Struct("<IQ")  # format version, metadata length


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    """A loaded checkpoint and the file it came from. ``optim`` carries only
    the schedule scalars (``base_lr``, ``step_count``, ``epoch``); its Adam
    moments are empty, because the file does not store them."""

    path: str
    params_state: dict[str, np.ndarray]
    optim: OptimState | None
    vocab: Vocab
    config: RunConfig


def save_checkpoint(path, params_state: dict[str, np.ndarray],
                    optim: OptimState | None, vocab: Vocab,
                    config: RunConfig) -> None:
    meta = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "vocab": vocab.id_to_token,
        "optim": None if optim is None else {
            "base_lr": optim.base_lr,
            "step_count": optim.step_count,
            "epoch": optim.epoch,
        },
        "params": [[name, list(data.shape)] for name, data in params_state.items()],
    }
    meta_b = json.dumps(meta, sort_keys=True).encode()
    body = b"".join([
        MAGIC, _HEAD.pack(FORMAT_VERSION, len(meta_b)), meta_b,
        *(np.ascontiguousarray(data, dtype="<f8").tobytes()
          for data in params_state.values()),
    ])
    with atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    head_end = len(MAGIC) + _HEAD.size
    if len(blob) < head_end + 32 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"corrupt or truncated checkpoint {path}: bad magic")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(
            f"corrupt or truncated checkpoint {path}: sha256 digest mismatch")

    version, meta_len = _HEAD.unpack_from(body, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format version {version} unsupported "
            f"(expected {FORMAT_VERSION})")
    pos = head_end + meta_len
    try:
        meta = json.loads(body[head_end:pos].decode())
        config = RunConfig.from_dict(meta["config"])
        vocab = Vocab(meta["vocab"])
        optim_meta = meta["optim"]
        if optim_meta is not None:
            optim_meta = {k: optim_meta[k] for k in ("base_lr", "step_count", "epoch")}
        entries = meta["params"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path}: metadata lacks field {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path}: unreadable metadata: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    if config.config_hash() != meta.get("config_hash"):
        raise CheckpointError(
            f"checkpoint {path}: config hash mismatch (stored config was altered)")

    if not (isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], list) and all(type(n) is int and n >= 0 for n in e[1])
            for e in entries) and len({e[0] for e in entries}) == len(entries)):
        raise CheckpointError(f"checkpoint {path}: metadata field 'params' is not a "
                              f"list of distinct [name, shape] pairs")
    sizes = [math.prod(shape) for _, shape in entries]
    if pos + 8 * sum(sizes) != len(body):
        raise CheckpointError(f"checkpoint {path}: the arrays take {8 * sum(sizes)} bytes, "
                              f"but {len(body) - pos} follow the metadata")
    params_state: dict[str, np.ndarray] = {}
    for (name, shape), size in zip(entries, sizes):
        data = np.frombuffer(body, dtype="<f8", count=size, offset=pos)
        if not np.isfinite(data).all():
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} holds a "
                                  f"non-finite value")
        params_state[name] = data.reshape(shape).astype(np.float64)
        pos += 8 * size

    optim = None if optim_meta is None else OptimState(**optim_meta)
    return Checkpoint(str(path), params_state, optim, vocab, config)


def build_model(ckpt: Checkpoint, extra_ablations: list[str] | None = None) -> Model:
    """Materialize a runnable model, validating the checkpoint's config and
    every stored shape against it."""
    cfg = ckpt.config
    if extra_ablations:
        cfg = cfg.with_ablations(extra_ablations)
    try:
        params = ModelParams.init(cfg, len(ckpt.vocab), rng=None)
        params.load_state(ckpt.params_state)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {ckpt.path}: {exc} (checkpoint dims: d={cfg.d}, d_w={cfg.d_w}, "
            f"d_v={cfg.d_v}, steps={cfg.steps}, vocab={len(ckpt.vocab)})") from exc
    return Model(params, cfg)
