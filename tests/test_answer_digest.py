"""The library's answers on the fixed input set of scripts/answer_digest.py.

A change that moves an answer updates ANSWER_DIGEST and lists the lines
that moved in CHANGES.md.
"""

import os
import subprocess
import sys

ANSWER_DIGEST = "94e8cadee91bdbf5f0e541a5f09304bac23e030042ec5faefd31c1f6816f9ad1"
SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "answer_digest.py")


def test_answer_digest_is_pinned():
    proc = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == f"sha256 {ANSWER_DIGEST}"
