"""Campaign results pinned byte for byte.

``golden_campaigns.json`` holds ``_asdict()`` of every campaign's result (a
``NamedTuple``) at seeds 0 and 1 with 12 trials, counters in insertion order.
It pins the order of random draws, the counters and the failure counts.
Regenerate it only when a campaign is meant to change:

    PYTHONPATH=src python tests/test_golden_campaigns.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from semipos import genfuzz

GOLDEN = Path(__file__).with_name("golden_campaigns.json")
SEEDS = (0, 1)
TRIALS = 12


def render() -> str:
    """Every (campaign, seed) result as one JSON object, one result a line."""
    lines = []
    for name in sorted(genfuzz.CAMPAIGNS):
        for seed in SEEDS:
            result = genfuzz.run_campaign(name, seed, TRIALS)._asdict()
            lines.append(f"{json.dumps(f'{name}:{seed}')}: {json.dumps(result)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_campaign_results_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_campaigns_pass():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(genfuzz.CAMPAIGNS) * len(SEEDS)
    assert all(r["failures"] == 0 and r["trials"] == TRIALS for r in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_campaigns.py --write")
    GOLDEN.write_text(render())
