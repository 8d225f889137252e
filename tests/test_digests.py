"""Drift gate: every reproducible output matches its blessed digest.

A failure lists the digests that moved.  If the change is intended, run
``PYTHONPATH=src python tests/bless_digests.py`` and record in CHANGES.md
which outputs changed and by how much.  The gate runs once on a serial
pool and once on a pool of two, so both paths of the row-parallel
kernels are gated on every host, whatever its core count.
"""

import json

import pytest
from bless_digests import GOLDEN, compute_digests, moves

from bevkit import rows


@pytest.fixture(params=[1, 2], ids=lambda n: f"{n}-worker")
def pool(request):
    with rows.worker_count(request.param):
        yield request.param


def test_outputs_match_golden_digests(tmp_path, pool):
    golden = json.loads(GOLDEN.read_text())
    changed = moves(golden, compute_digests(tmp_path))
    assert not changed, "outputs drifted from tests/golden_digests.json:\n" + "\n".join(changed)
