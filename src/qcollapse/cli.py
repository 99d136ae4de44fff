"""Command line entry points.

Exit codes: 0 all assertions pass, 1 assertion failure or runtime error,
2 configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .collapse import RNG_ALGORITHM, decompose, sample_collapse
from .diagnostics import packet_summary
from .errors import ParseError, QCollapseError, ValidationError
from .grid import Grid1D, PhysicalParams, make_gaussian, superpose
from .propagate import EvolutionConfig, Potential, evolve
from .scenarios import load_config, resolve_output_root, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollapse",
        description="1-D quantum dynamics with stochastic self-collapse")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario from a config file")
    sim.add_argument("config", type=Path)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", type=Path, default=None)

    samp = sub.add_parser("sample", help="run a scenario K times, member k "
                          "on seed + k * n_samples, and aggregate")
    samp.add_argument("config", type=Path)
    samp.add_argument("--n-runs", type=int, required=True)
    samp.add_argument("--out", type=Path, default=None)

    sub.add_parser("check", help="run the built-in invariant suite")
    return parser


def _print_manifest(manifest) -> None:
    for a in manifest.assertions:
        mark = "PASS" if a.passed else "FAIL"
        print(f"[{mark}] {a.name}: {a.detail}")
    if manifest.error:
        print(f"[ERROR] {manifest.error}")
    print(f"run dir: {manifest.run_dir}")


def _simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed,
                                  echo={**cfg.echo, "seed": args.seed})
    manifest = run(cfg, str(args.out) if args.out else None)
    _print_manifest(manifest)
    if manifest.error and manifest.error.split(":")[0] in (
            "ParseError", "ValidationError"):
        return 2
    return 0 if manifest.ok else 1


def _sample(args) -> int:
    if args.n_runs < 1:
        raise ValidationError(f"--n-runs must be at least 1, got {args.n_runs}")
    cfg = load_config(args.config)
    if cfg.seed is None:
        raise ValidationError("sample requires a seeded config")
    results = []
    for k in range(args.n_runs):  # disjoint blocks of n_samples event seeds
        seed_k = cfg.seed + k * cfg.n_samples
        member = dataclasses.replace(cfg, seed=seed_k,
                                     echo={**cfg.echo, "seed": seed_k})
        manifest = run(member, str(args.out) if args.out else None)
        results.append(manifest)
        _print_manifest(manifest)
    root = resolve_output_root(cfg, str(args.out) if args.out else None)
    aggregate = {
        "n_runs": args.n_runs,
        "n_pass": sum(1 for m in results if m.ok),
        "runs": [m.run_dir for m in results],
        "generator": RNG_ALGORITHM,
    }
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"aggregate-{cfg.scenario}.json"
    path.write_text(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    print(f"aggregate: {path}")
    return 0 if aggregate["n_pass"] == args.n_runs else 1


def _check(_args) -> int:
    """Quick built-in invariant suite (a fast subset of the test suite)."""
    params = PhysicalParams()
    grid = Grid1D(-40.0, 40.0, 1024)
    failures = 0

    def report(name, passed, detail):
        nonlocal failures
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        failures += 0 if passed else 1

    psi = make_gaussian(grid, 2.0, 1.0, 0.5, params)
    s = packet_summary(psi, params=params)
    report("gaussian_moments",
           abs(s.exp_x - 2.0) < 1e-8 and abs(s.std_x - 1.0) < 1e-6
           and abs(s.exp_p - 0.5) < 1e-6 and abs(s.std_p - 0.5) < 1e-6,
           f"<x>={s.exp_x:.6g} std_x={s.std_x:.6g} "
           f"<p>={s.exp_p:.6g} std_p={s.std_p:.6g}")
    report("uncertainty_saturation", abs(s.uncertainty_product - 0.5) < 1e-6,
           f"dx*dp = {s.uncertainty_product:.8g}")

    final = evolve(psi, Potential.harmonic(omega=1.0), params,
                   EvolutionConfig(dt=0.01, n_steps=200))
    report("unitarity", abs(final.norm() - 1.0) < 1e-10,
           f"|norm - 1| = {abs(final.norm() - 1.0):.3g}")

    packets = [make_gaussian(grid, c, 1.0, 0.0, params) for c in (-18.0, 18.0)]
    cat = superpose(zip((0.6, 0.8), packets))
    decomp = decompose(cat, packets, params=params,
                       expected_coefficients=(0.6, 0.8))
    p = decomp.probabilities
    report("geometric_probabilities",
           np.allclose(p, [0.36, 0.64], atol=1e-8),
           f"p = {p}")
    e1 = sample_collapse(decomp, 42)
    e2 = sample_collapse(decomp, 42)
    report("sampling_determinism", e1 == e2,
           f"seed 42 -> branch {e1.branch_index}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"simulate": _simulate, "sample": _sample, "check": _check}
    try:
        return handler[args.command](args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QCollapseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
