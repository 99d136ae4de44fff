"""Command line entry points.

Exit codes: 0 all assertions pass, 1 assertion failure or runtime error,
2 configuration error; `sample` exits with its members' highest code.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

from .errors import ParseError, QCollapseError, ValidationError
from .scenarios import (REGISTRY, RNG_ALGORITHM, json_text, load_config,
                        parse_config, resolve_output_root, run)

# Exceptions that mean the configuration is wrong: exit code 2.
CONFIG_ERRORS = (ParseError, ValidationError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollapse",
        description="1-D quantum dynamics with stochastic self-collapse")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario from a config file")
    sim.add_argument("config", type=Path)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)

    samp = sub.add_parser("sample", help="run a scenario K times, member k "
                          "with stream seed seed + k * n_samples, and "
                          "aggregate")
    samp.add_argument("config", type=Path)
    samp.add_argument("--n-runs", type=int, required=True)
    samp.add_argument("--out", default=None)

    sub.add_parser("check", help="run every scenario twice on a tiny "
                   "built-in config and compare the artifacts")
    return parser


def _print_manifest(manifest, with_run_dir: bool = True) -> None:
    for a in manifest.assertions:
        mark = "PASS" if a.passed else "FAIL"
        print(f"[{mark}] {a.name}: {a.detail}")
    if manifest.error:
        print(f"[ERROR] {manifest.error}")
    if with_run_dir:
        print(f"run dir: {manifest.run_dir}")


def _exit_code(manifest) -> int:
    if manifest.error_type and issubclass(manifest.error_type, CONFIG_ERRORS):
        return 2
    return 0 if manifest.ok else 1


def _simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed,
                                  echo={**cfg.echo, "seed": args.seed})
    manifest = run(cfg, args.out)
    _print_manifest(manifest)
    return _exit_code(manifest)


def _sample(args) -> int:
    if args.n_runs < 1:
        raise ValidationError(f"--n-runs must be at least 1, got {args.n_runs}")
    cfg = load_config(args.config)
    if cfg.seed is None:
        raise ValidationError("sample requires a seeded config")
    results = []
    # Each member draws its events from its own stream, default_rng(seed_k);
    # seed + k * n_samples is simply a distinct seed per member.
    for k in range(args.n_runs):
        seed_k = cfg.seed + k * cfg.n_samples
        member = dataclasses.replace(cfg, seed=seed_k,
                                     echo={**cfg.echo, "seed": seed_k})
        manifest = run(member, args.out)
        results.append(manifest)
        _print_manifest(manifest)
        if _exit_code(manifest) == 2:
            break  # every later member would repeat the config error
    root = resolve_output_root(cfg, args.out)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"aggregate-{cfg.scenario}.json"
    path.write_text(json_text({"n_runs": len(results),
                               "n_pass": sum(1 for m in results if m.ok),
                               "runs": [m.run_dir for m in results],
                               "generator": RNG_ALGORITHM}))
    print(f"aggregate: {path}")
    return max(map(_exit_code, results))


def _artifact_bytes(run_dir: str) -> dict:
    return {p.name: p.read_bytes() for p in Path(run_dir).iterdir()
            if p.name != "manifest.json"}


def _check(_args) -> int:
    """Run every scenario twice on its check config into a temporary
    directory; every assertion must pass and every artifact but the manifest
    must be byte-identical between the two runs."""
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, scenario in REGISTRY.items():
            cfg = parse_config(f"scenario: {name}\n{scenario.check_config}")
            first, second = (run(cfg, f"{tmp}/{rep}") for rep in "ab")
            for rep, manifest in zip("ab", (first, second)):
                print(f"{name}, run {rep}:")
                _print_manifest(manifest, with_run_dir=False)
            a, b = (_artifact_bytes(m.run_dir) for m in (first, second))
            differ = sorted(n for n in a.keys() | b.keys()
                            if a.get(n) != b.get(n))
            print(f"[{'FAIL' if differ else 'PASS'}] repeat_byte_identity: "
                  f"{len(a)} artifacts, differing: {differ}")
            if differ or not (first.ok and second.ok):
                failures += 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"simulate": _simulate, "sample": _sample, "check": _check}
    try:
        if vars(args).get("out") == "":
            raise ParseError("--out must be a non-empty path")
        return handler[args.command](args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QCollapseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
