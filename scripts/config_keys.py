"""Print every config key each scenario accepts, one `scenario: key` a line.

    python scripts/config_keys.py SRC

Imports qcollapse from the source directory SRC (a checkout's `src/`) and
expands each scenario's inputs, `ACCEPTED` plus its `REGISTRY[name].reads`,
to keys: a whole section to its constructor's fields, and `potential` to
`potential.kind` and the fields of every kind.  Two checkouts' outputs
diff to the knobs a change adds or removes.
"""
from __future__ import annotations

import inspect
import sys
from pathlib import Path


def accepted_keys(scenarios) -> list:
    """Sorted `scenario: key` lines of the given scenarios module."""
    lines = []
    for name, scenario in scenarios.REGISTRY.items():
        keys = set()
        for entry in scenarios.ACCEPTED + scenario.reads:
            factory = scenarios._SECTIONS.get(entry)
            if factory is None:  # a top-level key or a `section.key`
                keys.add(entry)
                continue
            factories = [factory]
            if isinstance(factory, dict):  # kind -> constructor
                keys.add(f"{entry}.kind")
                factories = factory.values()
            keys.update(f"{entry}.{field}" for f in factories
                        for field in inspect.signature(f).parameters)
        lines += [f"{name}: {key}" for key in sorted(keys)]
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    from qcollapse import scenarios

    if src not in Path(scenarios.__file__).resolve().parents:
        raise SystemExit(f"imported {scenarios.__file__}, not from {src}")
    print(*accepted_keys(scenarios), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
