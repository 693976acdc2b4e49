"""The library's answers on the fixed input set of scripts/answer_digest.py.

A change that moves an answer updates ANSWER_DIGEST and lists the lines
that moved in CHANGES.md.
"""

import os
import subprocess
import sys

ANSWER_DIGEST = "c18f5ec718ce2837d4241049a13967e317a29fa19e8c792e11eae906755f8e3a"
SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "answer_digest.py")


def test_answer_digest_is_pinned():
    proc = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == f"sha256 {ANSWER_DIGEST}"
