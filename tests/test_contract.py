"""The record streams stay byte-identical to the pinned contract digests.

``perfbench/contract.py`` runs every suite in text and JSON on A2, A3, B2
and G2, plus the README examples, and compares the sha256 of each stream
with ``perfbench/contract_digests.json``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_record_streams_match_contract_digests():
    done = subprocess.run([sys.executable, "perfbench/contract.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "66 of 66" in done.stdout
