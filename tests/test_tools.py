"""Smoke test of ``tools/report_digest.py`` on a few generated surfaces."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(hash_seed: str) -> str:
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"),
         "--seeds", "1", "2", "--count", "40"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert out.stderr == ""
    return out.stdout


def test_report_digest_is_stable():
    line = _digest("0")
    m = re.fullmatch(r"valid=(\d+) sha256=[0-9a-f]{64}\n", line)
    assert m, line
    assert 0 < int(m.group(1)) < 80  # the range holds invalid surfaces too
    assert _digest("1") == line  # reports do not depend on hash order
