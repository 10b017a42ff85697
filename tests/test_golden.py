"""Golden reports: every corpus file's JSON and text reports, byte for byte.

The files under ``tests/golden/`` were written by the CLI:

    endcalc classify corpus/<name>.surf --json --witness  > <name>.json
    endcalc classify corpus/<name>.surf --bounds --witness > <name>.txt

End types hash by identity, so set iteration order differs from process
to process; reports must not depend on it.  Fresh interpreter processes
(with different string hash seeds) are therefore compared too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from endcalc.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
SURFACES = sorted(p.stem for p in CORPUS.glob("*.surf"))
FORMATS = {"json": ["--json", "--witness"], "txt": ["--bounds", "--witness"]}


@pytest.mark.parametrize("ext", sorted(FORMATS))
@pytest.mark.parametrize("name", SURFACES)
def test_report_matches_golden(name, ext, capsys):
    path = CORPUS / ("%s.surf" % name)
    assert main(["classify", str(path), *FORMATS[ext]]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / ("%s.%s" % (name, ext))).read_bytes()


def _fresh_json_reports(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = {}
    for name in SURFACES:
        proc = subprocess.run(
            [sys.executable, "-m", "endcalc.cli", "classify",
             str(CORPUS / ("%s.surf" % name)), *FORMATS["json"]],
            env=env, capture_output=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        out[name] = proc.stdout
    return out


def test_fresh_processes_agree_with_goldens():
    assert SURFACES
    first = _fresh_json_reports("1")
    second = _fresh_json_reports("2")
    assert first == second
    for name in SURFACES:
        assert first[name] == (GOLDEN / ("%s.json" % name)).read_bytes()
