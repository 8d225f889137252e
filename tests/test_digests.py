"""Drift gate: every reproducible output matches its blessed digest.

A failure lists the digests that moved.  If the change is intended, run
``PYTHONPATH=src python tests/bless_digests.py`` and record in CHANGES.md
which outputs changed and by how much.  The gate runs at 1, 2 and 3
workers, so the serial path of the row-parallel kernels and their split
path with one and with two helper threads are gated on every host,
whatever its core count.
"""

import json

import pytest
from bless_digests import GOLDEN, compute_digests, moves

from bevkit import rows


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-worker")
def workers(request):
    with rows.worker_count(request.param):
        yield request.param


def test_outputs_match_golden_digests(tmp_path, workers):
    golden = json.loads(GOLDEN.read_text())
    changed = moves(golden, compute_digests(tmp_path))
    assert not changed, "outputs drifted from tests/golden_digests.json:\n" + "\n".join(changed)
