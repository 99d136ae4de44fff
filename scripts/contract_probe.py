"""Tally what parsing and running do to random configs of every scenario.

    python scripts/contract_probe.py SRC

Imports qcollapse from the source directory SRC (a checkout's `src/`),
draws DRAWS = 400 derandomized configs from the `configs()` strategy of
this checkout's `tests/test_parse_run_contract.py`, parses each and runs
what parsing accepts in a temporary directory.  Prints one
`scenario: outcome: count` line per outcome, sorted, then the number of
draws.  An outcome is `parse: refused` (a config error), `run: ok`,
`run: failed <assertion>[, <assertion> ...]`, or `parse: <ErrorType>` or
`run: <ErrorType>` for the exception that ended that stage.  Hypothesis
derives a derandomized draw from the drawing function's source, so two
checkouts probed by this one script draw the same configs wherever they
accept the same keys, and their outputs diff to the outcomes a change
moved.  It only reports: it exits 0 whatever it finds.
"""
from __future__ import annotations

import collections
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings

TESTS = Path(__file__).resolve().parent.parent / "tests"
DRAWS = 400


def outcome(scenarios, config_errors, doc: dict) -> str:
    """What parsing, then running, does to one config document."""
    try:
        cfg = scenarios.parse_config(json.dumps(doc))
    except config_errors:
        return "parse: refused"
    except Exception as exc:
        return f"parse: {type(exc).__name__}"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            manifest = scenarios.run(cfg, tmp)
    except Exception as exc:  # run re-raises what is not a QCollapseError
        return f"run: {type(exc).__name__}"
    if manifest.error_type is not None:
        return f"run: {manifest.error_type.__name__}"
    failed = [a.name for a in manifest.assertions if not a.passed]
    return f"run: failed {', '.join(failed)}" if failed else "run: ok"


def main(argv) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    from qcollapse import scenarios
    from qcollapse.cli import CONFIG_ERRORS

    if src not in Path(scenarios.__file__).resolve().parents:
        raise SystemExit(f"imported {scenarios.__file__}, not from {src}")
    sys.path.insert(1, str(TESTS))
    from test_parse_run_contract import configs

    tally = collections.Counter()

    @settings(max_examples=DRAWS, derandomize=True, database=None,
              deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(doc=configs())
    def probe(doc):
        tally[doc["scenario"], outcome(scenarios, CONFIG_ERRORS, doc)] += 1

    probe()
    for (name, what), count in sorted(tally.items()):
        print(f"{name}: {what}: {count}")
    print(f"draws: {sum(tally.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
