"""Drift gate: every reproducible output matches its blessed digest.

A failure lists the digests that moved.  If the change is intended, run
``PYTHONPATH=src python tests/bless_digests.py`` and record in CHANGES.md
which outputs changed and by how much.
"""

import json

from bless_digests import GOLDEN, compute_digests, moves


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    changed = moves(golden, compute_digests(tmp_path))
    assert not changed, "outputs drifted from tests/golden_digests.json:\n" + "\n".join(changed)
