"""Hash the artifacts of scenario runs, and compare two such hash files.

    python scripts/compare_artifacts.py hash SRC OUT.json [CONFIG.yaml ...]
    python scripts/compare_artifacts.py diff BASE.json HEAD.json

`hash` imports qcollapse from the source directory SRC (a checkout's
`src/`), runs every scenario on its `qcollapse check` config plus any
CONFIG files given, and writes the sha256 of every artifact except
`manifest.json`, with each run's ok flag, to OUT.json.  `diff` prints a
Markdown report of the runs and files whose hashes or ok flags differ.  It
only reports: it exits 0 whatever it finds.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path


def _hash_runs(src: Path, configs) -> dict:
    sys.path.insert(0, str(src))
    import qcollapse
    from qcollapse.scenarios import REGISTRY, parse_config, run

    if src not in Path(qcollapse.__file__).resolve().parents:
        raise SystemExit(f"imported {qcollapse.__file__}, not from {src}")
    texts = {name: f"scenario: {name}\n{s.check_config}"
             for name, s in REGISTRY.items()}
    texts.update((Path(c).stem, Path(c).read_text()) for c in configs)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in texts.items():
            manifest = run(parse_config(text), f"{tmp}/{label}")
            runs[label] = {
                "ok": manifest.ok,
                "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(Path(manifest.run_dir).iterdir())
                          if p.name != "manifest.json"}}
    return runs


def _diff(base: dict, head: dict) -> str:
    lines, total = [], 0
    for label in sorted(base.keys() | head.keys()):
        a, b = base.get(label), head.get(label)
        if a is None or b is None:
            lines.append(f"- `{label}`: run only at "
                         f"{'head' if a is None else 'base'}")
            continue
        if a["ok"] != b["ok"]:
            lines.append(f"- `{label}`: ok {a['ok']} -> {b['ok']}")
        names = a["files"].keys() | b["files"].keys()
        total += len(names)
        lines += [f"- `{label}/{name}`" for name in sorted(names)
                  if a["files"].get(name) != b["files"].get(name)]
    head_line = "### Artifacts against the base commit\n\n"
    if not lines:
        return (head_line + f"All {total} artifacts of {len(head)} runs are "
                "sha256-identical (manifest.json excluded).\n")
    return head_line + "Differing:\n\n" + "\n".join(lines) + "\n"


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "hash":
        runs = _hash_runs(Path(argv[1]).resolve(), argv[3:])
        Path(argv[2]).write_text(json.dumps(runs, indent=2, sort_keys=True))
    elif len(argv) == 3 and argv[0] == "diff":
        base, head = (json.loads(Path(p).read_text()) for p in argv[1:])
        print(_diff(base, head), end="")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
