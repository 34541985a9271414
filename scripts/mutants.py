#!/usr/bin/env python3
"""Mutation audit of the contract: does some test fail when a check breaks?

Usage: python3 scripts/mutants.py [NAME ...]

Each mutant is one exact text replacement in one file under ``src/``. For
each mutant (all of them, or the ones named), the script copies ``src/``,
``tests/`` and ``scripts/`` into a fresh temporary directory, applies the
replacement there, and runs ``python -m pytest -q -x`` on the copy without
``tests/test_acceptance.py`` (slow; criteria are not run per mutant) and
without ``tests/test_mutants.py`` (it checks the unmutated targets). A
failing run kills the mutant; a passing run lets it survive. The checkout
itself is never modified.

Before anything runs, every mutant's target must occur exactly once in its
file, so a refactor cannot retire a mutant silently: a change that deletes
a check deletes its mutant, and one that adds a check adds a mutant.

Prints one line per mutant and a killed/survived tally; exits 1 if any
mutant survived. Each run takes 5-25 s, mostly the fingerprint test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    # training
    Mutant("best-mrr-tie", "src/cag/training.py",
           "if report.mrr > result.best_mrr:", "if report.mrr >= result.best_mrr:"),
    # checkpoint boundary
    Mutant("ckpt-non-finite", "src/cag/checkpoint.py",
           "if not np.isfinite(data).all():", "if False:"),
    Mutant("ckpt-config-hash", "src/cag/checkpoint.py",
           'if config.config_hash() != meta.get("config_hash"):', "if False:"),
    Mutant("ckpt-arrays-underfill", "src/cag/checkpoint.py",
           "if pos + 8 * sum(sizes) != len(body):", "if pos + 8 * sum(sizes) > len(body):"),
    Mutant("vocab-unique", "src/cag/encoders.py",
           "if len(self.token_to_id) != len(self.id_to_token):", "if False:"),
    Mutant("cli-catches-checkpoint-error", "src/cag/cli.py",
           "except (OSError, ValueError, GenerationError, CheckpointError, CliError)",
           "except (OSError, ValueError, GenerationError, CliError)"),
    Mutant("trace-id-one-split", "src/cag/cli.py", "if len(found) > 1:", "if False:"),
    # model construction
    Mutant("params-d-v", "src/cag/model.py", "if cfg.d_v != FEATURE_DIM:", "if False:"),
    # corpus boundary
    Mutant("corpus-two-candidates", "src/cag/synthdial.py",
           "if n_cand < 2:", "if n_cand < 1:"),
    Mutant("corpus-gt-range", "src/cag/synthdial.py",
           "not 0 <= gt < n_cand", "not 0 <= gt <= n_cand"),
    Mutant("corpus-id-negative", "src/cag/synthdial.py",
           "or dialog_id < 0:", "or dialog_id < -1:"),
    Mutant("corpus-id-bool", "src/cag/synthdial.py",
           "if type(dialog_id) is not int", "if not isinstance(dialog_id, int)"),
    Mutant("corpus-id-unique", "src/cag/synthdial.py",
           "if inst.dialog_id in id_lines:", "if False:"),
    Mutant("corpus-empty-sentence", "src/cag/synthdial.py",
           "if type(s) is not list or not s]", "if type(s) is not list]"),
    Mutant("corpus-unk-token", "src/cag/synthdial.py",
           "or t in reserved]", "or t == PAD_TOKEN]"),
    Mutant("corpus-grid-type", "src/cag/synthdial.py",
           "if type(grid) is not int or grid < 1:", "if grid < 1:"),
    Mutant("corpus-cell-range", "src/cag/synthdial.py",
           "0 <= cell[1] < grid):", "0 <= cell[1] <= grid):"),
    Mutant("scene-min-objects", "src/cag/synthdial.py",
           "if not MIN_OBJECTS <= n_objects <= MAX_OBJECTS:",
           "if not n_objects <= MAX_OBJECTS:"),
    Mutant("manifest-candidates", "src/cag/synthdial.py",
           "if not 2 <= self.candidates <= MAX_CANDIDATES:", "if not 2 <= self.candidates:"),
    Mutant("oracle-ref-range", "src/cag/synthdial.py",
           "if not 0 <= question.ref_id < len(objs):", "if False:"),
    # config boundary
    Mutant("config-dropout-one", "src/cag/config.py",
           "if not (0.0 <= self.dropout < 1.0):", "if not (0.0 <= self.dropout <= 1.0):"),
    Mutant("config-lr-finite", "src/cag/config.py",
           "if not (math.isfinite(self.lr) and self.lr > 0):", "if not self.lr > 0:"),
    Mutant("config-k-neighbors", "src/cag/config.py",
           '("k_neighbors", 1)', '("k_neighbors", 0)'),
    Mutant("config-file-named", "src/cag/config.py",
           "return cls.from_dict(data)\n        except ValueError",
           "return cls.from_dict(data)\n        except KeyError"),
    # fused LSTM kernel
    Mutant("lstm-dwh-shift", "src/cag/tensor.py",
           "out[:, : m - 1].T", "out[:, 1:].T"),
    Mutant("lstm-db-first-step", "src/cag/tensor.py",
           "dpre_all.sum(axis=1, keepdims=True)", "dpre_all[:, 1:].sum(axis=1, keepdims=True)"),
    # eval sentence memo
    Mutant("sentence-memo-key", "src/cag/encoders.py",
           "key = tuple(ids)", "key = tuple(ids[:1])"),
    # forward pass
    Mutant("select-neighbors-unstable", "src/cag/graph.py",
           'kind="stable"', 'kind="quicksort"'),
    Mutant("update-nodes-visual-half", "src/cag/graph.py",
           "T.concat([visual, new_ctx], axis=0)",
           "T.concat([T.tanh(visual), new_ctx], axis=0)"),
    Mutant("step-numbering", "src/cag/graph.py",
           "enumerate(commands, start=1)", "enumerate(commands)"),
]


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's target replaced; the target must occur
    exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: target {mutant.old!r} occurs {count} "
                         f"times in {mutant.path}, expected exactly once")
    return text.replace(mutant.old, mutant.new)


def check_targets(root: Path, mutants=MUTANTS) -> None:
    for m in mutants:
        mutate((root / m.path).read_text(), m)


def killed(mutant: Mutant) -> bool:
    """Run the suite on a mutated copy of the tree; True if it fails."""
    with tempfile.TemporaryDirectory(prefix="cag-mutant-") as tmp:
        for name in COPIED:
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = Path(tmp) / mutant.path
        target.write_text(mutate(target.read_text(), mutant))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_acceptance.py", "--ignore=tests/test_mutants.py",
             "tests"],
            cwd=tmp, env=env, capture_output=True, text=True)
    return proc.returncode != 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: unknown mutants {sorted(unknown)}", file=sys.stderr)
        return 2
    try:
        check_targets(ROOT, chosen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survivors = []
    for m in chosen:
        t0 = time.perf_counter()
        dead = killed(m)
        print(f"{'killed  ' if dead else 'SURVIVED'}  {m.name}  "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
        if not dead:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
