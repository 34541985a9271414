"""The fixed-seed fingerprint: everything gen/train/eval/trace write must
hash to the committed expectation recorded on the same numpy, BLAS and CPU
code paths.

``tests/fingerprint.txt`` was recorded natively on an AVX-512 machine and
``tests/fingerprint.avx2.txt`` on the same machine under ``AVX2_EMULATION``.
A change that alters numerics or file formats on purpose regenerates both
files in the same change (``REGENERATE``) and says which lines moved.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NATIVE = ROOT / "tests" / "fingerprint.txt"
AVX2 = ROOT / "tests" / "fingerprint.avx2.txt"
# OpenBLAS's Haswell kernels and numpy's AVX2 (X86_V3) dispatch; libm and
# the compiled baseline stay those of the machine
AVX2_EMULATION = {"OPENBLAS_CORETYPE": "Haswell",
                  "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
REGENERATE = ("python3 scripts/fingerprint.py > tests/fingerprint.txt, and "
              + " ".join(f"{k}='{v}'" for k, v in AVX2_EMULATION.items())
              + " python3 scripts/fingerprint.py > tests/fingerprint.avx2.txt")


def split(text: str) -> tuple[list[str], dict[str, str]]:
    """(``#`` environment lines, artifact path -> sha256)."""
    env, hashes = [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            env.append(line)
        elif line:
            digest, path = line.split("  ", 1)
            hashes[path] = digest
    return env, hashes


def run_fingerprint(extra_env: dict[str, str] | None = None) -> str:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          env={**os.environ, **(extra_env or {})})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def check_against_recorded(stdout: str) -> Path:
    """Compare every hash with the expectation whose ``#`` header matches;
    returns that file."""
    got_env, got = split(stdout)
    recorded = {tuple(split(path.read_text())[0]): path for path in (NATIVE, AVX2)}
    # hashes from another numpy, BLAS or CPU code path say nothing about this
    # change: fail loudly rather than skip, so a file is regenerated on purpose
    path = recorded.get(tuple(got_env))
    assert path is not None, (
        "the fingerprints were recorded on "
        + " and on ".join(" / ".join(env) for env in recorded)
        + f", but this environment is {' / '.join(got_env)}; check the numerics on "
        f"a recorded environment, or regenerate with `{REGENERATE}`")
    want = split(path.read_text())[1]
    differ = sorted(p for p in want.keys() & got.keys() if want[p] != got[p])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"fingerprint differs from {path.name}: changed {differ}, missing {missing}, "
        f"new {extra}; if the change is intended, regenerate with `{REGENERATE}`")
    return path


def test_outputs_match_committed_fingerprint():
    check_against_recorded(run_fingerprint())


def test_outputs_match_under_avx2_emulation():
    # on an AVX2-only machine the native run already checks this file
    assert check_against_recorded(run_fingerprint(AVX2_EMULATION)) == AVX2
