"""Run configuration: model dimensions, inference knobs, training recipe;
the checked JSON-record base that corpus manifests share; and the atomic
file write every artifact goes through."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

VARIANTS = ("cag", "dualq")
ABLATIONS = ("no_infer", "no_u", "no_q_att", "no_g_att")

# field annotation -> check on its value; bool is an int subclass, so the
# numeric checks refuse it by name
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list[str]": lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v),
    "dict[str, int]": lambda v: isinstance(v, dict) and all(
        isinstance(k, str) and _TYPE_CHECKS["int"](n) for k, n in v.items()),
}


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write through a temp file beside ``path`` that ``os.replace`` moves
    onto it when the block ends, so a killed or failed write leaves the old
    file whole. No fsync: this guards against a killed run, not power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


class JsonRecord:
    """Base of the dataclasses read from and written to JSON files:
    construction checks every field against its annotation, and loading
    refuses unknown keys."""

    KIND = "record"  # names the record in error messages

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS[f.type](value):
                raise ValueError(
                    f"{self.KIND} field {f.name!r} must be {f.type}, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict):
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.KIND} fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        """Invalid JSON, a top-level value that is not an object, or a bad
        field is a ValueError naming ``path``."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class RunConfig(JsonRecord):
    KIND = "config"

    # model dimensions
    d: int = 512
    d_w: int = 300
    d_v: int = 16
    # graph inference
    k_neighbors: int = 8
    steps: int = 3
    variant: str = "cag"
    ablations: list[str] = field(default_factory=list)
    # training recipe
    lr: float = 4e-4
    epochs: int = 20
    dropout: float = 0.3
    seed: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.variant not in VARIANTS:
            raise ValueError(f"config field 'variant' must be one of {VARIANTS}, "
                             f"got {self.variant!r}")
        if not set(self.ablations) <= set(ABLATIONS):
            raise ValueError(f"config field 'ablations' must be among {ABLATIONS}, "
                             f"got {self.ablations!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"config field 'dropout' must be in [0, 1), got {self.dropout}")
        for name, low in (("d", 1), ("d_w", 1), ("d_v", 1), ("k_neighbors", 1),
                          ("steps", 0), ("epochs", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"config field {name!r} must be >= {low}, "
                                 f"got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"config field 'lr' must be finite and > 0, got {self.lr}")

    @property
    def effective_steps(self) -> int:
        """Inference steps the model runs: none under the no_infer ablation."""
        return 0 if "no_infer" in self.ablations else self.steps

    def with_ablations(self, extra: list[str]) -> "RunConfig":
        merged = sorted(set(self.ablations) | set(extra))
        return dataclasses.replace(self, ablations=merged)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
