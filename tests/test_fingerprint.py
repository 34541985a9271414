"""The fixed-seed fingerprint: everything gen/train/eval/trace write must
hash to the committed ``tests/fingerprint.txt``.

A change that alters numerics or file formats on purpose regenerates the
file in the same change (``REGENERATE``) and says which lines moved.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "fingerprint.txt"
REGENERATE = "python3 scripts/fingerprint.py > tests/fingerprint.txt"


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


def test_outputs_match_committed_fingerprint():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    want_env, want = split(EXPECTED.read_text())
    got_env, got = split(proc.stdout)
    # hashes from another numpy or BLAS say nothing about this change: fail
    # loudly rather than skip, so the file is regenerated on purpose
    assert got_env == want_env, (
        f"tests/fingerprint.txt was recorded on {' / '.join(want_env)}, but this "
        f"environment is {' / '.join(got_env)}; check the numerics on the recorded "
        f"environment, or regenerate with `{REGENERATE}`")
    differ = sorted(p for p in want.keys() & got.keys() if want[p] != got[p])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"fingerprint differs: changed {differ}, missing {missing}, new {extra}; "
        f"if the change is intended, regenerate with `{REGENERATE}`")
