"""Hash the artifacts of scenario runs, and compare two such hash files.

    python scripts/compare_artifacts.py hash SRC OUT.json [CONFIG.yaml ...]
    python scripts/compare_artifacts.py diff BASE.json HEAD.json

`hash` imports qcollapse from the source directory SRC (a checkout's
`src/`) and runs the standard verification set: every scenario on its
`qcollapse check` config, labelled by the scenario's name, and the
benchmark workload configs of BENCH_RUNS, written by this checkout's
`bench/workloads.py` and labelled `bench_<workload><suffix>`.  Any CONFIG
files given run too, labelled by their stem.  It writes the sha256 of every
artifact except `manifest.json`, and of every column of each `.csv`
artifact (its values, `#` comment lines skipped), with each run's
directory name (`<scenario>-<confighash>-seed<N>`), ok flag, assertions as
[name, passed] and the name of the error type that ended it (null if none),
to OUT.json.
`diff` prints a Markdown report of the runs and files whose hashes or ok
flags differ, the changed columns under each differing CSV, and each run's
changed directory name, assertions that were added, removed or flipped and
changed error type.  Both files must be written by this version of the
script.  It only reports: it exits 0 whatever it finds.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (label suffix, workload, seed, small) of each benchmark config in the set:
# all three workloads at small size and seed 1; the full-size ensemble at
# seeds 1 and 3, whose 40 000 events span many buffered writes of
# collapse.jsonl (the small config's 2000 do not); the full-size chain and
# trajectory at seed 1, which write diagnostics.csv through packet_summary
# at full size; and the full-size chain at seed 5, a second seeded pick.
BENCH_RUNS = ([("", w, 1, True) for w in ("chain", "ensemble", "trajectory")]
              + [(f"_full_seed{s}", "ensemble", s, False) for s in (1, 3)]
              + [("_full_seed1", w, 1, False) for w in ("chain", "trajectory")]
              + [("_full_seed5", "chain", 5, False)])


def standard_configs(registry) -> dict:
    """Label -> config text of the standard verification set, given the
    scenario registry of the qcollapse under test."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, config_text

    texts = {name: f"scenario: {name}\n{s.check_config}"
             for name, s in registry.items()}
    texts.update((f"bench_{w}{suffix}",
                  config_text(WORKLOADS[w].config(seed, small)))
                 for suffix, w, seed, small in BENCH_RUNS)
    return texts


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column_hashes(path: Path) -> dict:
    """Column name -> sha256 of its values, one per line, of a CSV file
    whose first non-comment line is the header; `#` lines are skipped."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]
    return {col[0]: _sha256("\n".join(col[1:]).encode())
            for col in zip(*rows)}


def _hash_runs(src: Path, configs) -> dict:
    sys.path.insert(0, str(src))
    import qcollapse
    from qcollapse.scenarios import REGISTRY, parse_config, run

    if src not in Path(qcollapse.__file__).resolve().parents:
        raise SystemExit(f"imported {qcollapse.__file__}, not from {src}")
    texts = standard_configs(REGISTRY)
    texts.update((Path(c).stem, Path(c).read_text()) for c in configs)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in texts.items():
            manifest = run(parse_config(text), f"{tmp}/{label}")
            paths = sorted(Path(manifest.run_dir).iterdir())
            runs[label] = {
                "run_dir": Path(manifest.run_dir).name,
                "ok": manifest.ok,
                "assertions": [[a.name, a.passed]
                               for a in manifest.assertions],
                "error_type": (manifest.error_type
                               and manifest.error_type.__name__),
                "files": {p.name: _sha256(p.read_bytes()) for p in paths
                          if p.name != "manifest.json"},
                "columns": {p.name: _column_hashes(p) for p in paths
                            if p.suffix == ".csv"}}
    return runs


def _run_changes(label: str, a: dict, b: dict) -> list:
    """Report lines for run `label` from `a` to `b`: a renamed run
    directory, a changed error type and each assertion that was added,
    removed or flipped."""
    old, new = dict(a["assertions"]), dict(b["assertions"])
    verdict = {True: "PASS", False: "FAIL"}
    lines = []
    if a["run_dir"] != b["run_dir"]:
        lines.append(f"- `{label}`: run directory {a['run_dir']} -> "
                     f"{b['run_dir']}")
    if a["error_type"] != b["error_type"]:
        lines.append(f"- `{label}`: error type {a['error_type']} -> "
                     f"{b['error_type']}")
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            change = f"removed (was {verdict[old[name]]})"
        elif name not in old:
            change = f"added ({verdict[new[name]]})"
        elif old[name] != new[name]:
            change = f"{verdict[old[name]]} -> {verdict[new[name]]}"
        else:
            continue
        lines.append(f"- `{label}`: assertion `{name}` {change}")
    return lines


def _column_changes(a: dict, b: dict, name: str) -> list:
    """The report line naming the columns of CSV `name` whose hashes differ
    from run `a` to run `b`, or none unless both runs have that CSV."""
    old, new = (run["columns"].get(name) for run in (a, b))
    if old is None or new is None:
        return []
    changed = [c for c in sorted(old.keys() | new.keys())
               if old.get(c) != new.get(c)]
    if not changed:
        return ["  - no column differs (a `#` line does)"]
    return ["  - columns: " + ", ".join(f"`{c}`" for c in changed)]


def _diff(base: dict, head: dict) -> str:
    lines, checks, total = [], [], 0
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
        for name in sorted(names):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"- `{label}/{name}`")
                lines += _column_changes(a, b, name)
        checks += _run_changes(label, a, b)
    report = "### Artifacts against the base commit\n\n"
    if not lines:
        report += (f"All {total} artifacts of {len(head)} runs are "
                   "sha256-identical (manifest.json excluded).\n")
    else:
        report += "Differing:\n\n" + "\n".join(lines) + "\n"
    heading = "\nRun directories, assertions and error types:"
    if checks:
        return report + heading + "\n\n" + "\n".join(checks) + "\n"
    return report + (f"{heading} no change in the "
                     f"{len(base.keys() & head.keys())} runs both files "
                     "hold.\n")


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
