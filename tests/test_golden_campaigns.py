"""Campaign results pinned byte for byte.

``golden_campaigns.json`` holds ``_asdict()`` of every campaign's result (a
``NamedTuple``) at seeds 0 and 1 with 12 trials, counters in insertion order.
It pins the order of random draws, the counters and the failure counts.
Regenerate it only when a campaign is meant to change, with the one writer
of every golden file:

    PYTHONPATH=src python3 tests/golden.py --write
"""

from __future__ import annotations

import json

import golden
from semipos import genfuzz

GOLDEN = golden.path("campaigns")
SEEDS = (0, 1)
TRIALS = 12


def render() -> str:
    """Every (campaign, seed) result, one result a line."""
    return golden.dump(
        (f"{name}:{seed}", genfuzz.run_campaign(name, seed, TRIALS)._asdict())
        for name in sorted(genfuzz.CAMPAIGNS)
        for seed in SEEDS
    )


def test_campaign_results_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_campaigns_pass():
    pinned = json.loads(GOLDEN.read_text())
    assert len(pinned) == len(genfuzz.CAMPAIGNS) * len(SEEDS)
    assert all(r["failures"] == 0 and r["trials"] == TRIALS for r in pinned.values())
