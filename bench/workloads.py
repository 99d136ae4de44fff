"""The benchmark's workloads: scenario configs made from a seed, the analytic
call counts a traced run must reproduce, and the physics invariant each run
must satisfy.

Each workload is one scenario run end to end through
``scenarios.parse_config`` + ``scenarios.run``.  ``small=True`` shrinks the
inputs for the benchmark's own test; the counts and invariants follow the
config, so they hold at either size.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

import yaml

COEFFICIENTS = [0.48, 0.6, 0.64]
# Trajectory packet-center jitter: well inside the [-40, 40] grid, so the
# boundary guard never fires, and small enough to keep the Strang error of
# <x>(t) under the scenario's 1e-5 tolerance.
CENTER_JITTER = 0.25
BORN_TOL = 1e-8
TRAJECTORY_TOL = 1e-5


def _chain_config(seed: int, small: bool) -> dict:
    return {
        "scenario": "measurement_run",
        "grid": {"x_min": -40.0, "x_max": 120.0,
                 "n_points": 1024 if small else 2048},
        "coefficients": COEFFICIENTS,
        "evolution": {"dt": 0.05 if small else 0.01, "record_every": 50},
        "coupling": {"tau": 15.0},
        "seed": seed,
    }


def _ensemble_config(seed: int, small: bool) -> dict:
    return {
        "scenario": "collapse_sample",
        "grid": {"x_min": -40.0, "x_max": 120.0,
                 "n_points": 1024 if small else 2048},
        "coefficients": COEFFICIENTS,
        "packet": {"center": 0.0, "separation": 16.0},
        "n_samples": 2000 if small else 40000,
        "seed": seed,
    }


def _trajectory_config(seed: int, small: bool) -> dict:
    # harmonic_coherent takes no seed; the seed moves the packet instead.
    jitter = random.Random(seed).uniform(-CENTER_JITTER, CENTER_JITTER)
    return {
        "scenario": "harmonic_coherent",
        "grid": {"x_min": -40.0, "x_max": 40.0,
                 "n_points": 1024 if small else 8192},
        "packet": {"center": 3.0 + jitter},
        "evolution": {"dt": 0.001, "n_steps": 500 if small else 5000,
                      "record_every": 50},
    }


def _chain_steps(cfg: dict) -> int:
    return round(cfg["coupling"]["tau"] / cfg["evolution"]["dt"])


def _chain_counts(cfg: dict) -> Dict[str, int]:
    n, d = _chain_steps(cfg), len(cfg["coefficients"])
    # packet_summary: 1 + d per sample (t = 0 and every step), plus 4 before
    # the coupling (readiness observable, two inside the gate, apparatus
    # width check) and d for the apparatus decomposition in `measure`.
    return {"propagate.step": n * d,
            "propagate.translate": n * (d - 1),
            "diagnostics.packet_summary": 4 + d * (n + 2)}


def _ensemble_counts(cfg: dict) -> Dict[str, int]:
    return {"collapse.sample_collapse": cfg["n_samples"]}


def _trajectory_counts(cfg: dict) -> Dict[str, int]:
    ev = cfg["evolution"]
    return {"propagate.evolve": 1,
            "diagnostics.packet_summary": 1 + ev["n_steps"] // ev["record_every"]}


def _chain_invariant(cfg: dict, run_dir: Path) -> Optional[str]:
    summary = json.loads((run_dir / "summary.json").read_text())
    if summary["t_star"] is None:
        return "no transition: t_star is null"
    return None


def _ensemble_invariant(cfg: dict, run_dir: Path) -> Optional[str]:
    doc = json.loads((run_dir / "probabilities.json").read_text())
    born = [c * c for c in cfg["coefficients"]]
    err = max(abs(p - b) for p, b in zip(doc["geometric"], born))
    if len(doc["geometric"]) != len(born) or err > BORN_TOL:
        return f"geometric probabilities miss |c|^2 by {err:.3g}"
    return None


def _trajectory_invariant(cfg: dict, run_dir: Path) -> Optional[str]:
    # Default trap: omega = 1 centred at 0, so <x>(t) = x0 cos t.
    x0 = cfg["packet"]["center"]
    with open(run_dir / "diagnostics.csv", newline="") as fh:
        worst = max(abs(float(r["exp_x"]) - x0 * math.cos(float(r["t"])))
                    for r in csv.DictReader(fh))
    if worst > TRAJECTORY_TOL:
        return f"<x>(t) deviates from x0 cos t by {worst:.3g}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, bool], dict]  # (seed, small) -> config mapping
    # Unit of work behind work_per_s: split steps summed over branches, or
    # sampled collapse events.
    work_unit: str
    work: Callable[[dict], int]
    expected_counts: Callable[[dict], Dict[str, int]]
    invariant: Callable[[dict, Path], Optional[str]]

    def branch_steps(self, cfg: dict) -> int:
        return self.work(cfg) if self.work_unit == "branch_steps" else 0

    def shape(self, cfg: dict) -> dict:
        """N, d and per-branch step count, stamped into the output."""
        d = len(cfg.get("coefficients", [None]))
        return {"n_points": cfg["grid"]["n_points"], "d": d,
                "steps": self.branch_steps(cfg) // d}


def config_text(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True)


WORKLOADS = {w.name: w for w in (
    Workload("chain", _chain_config, "branch_steps",
             work=lambda c: _chain_steps(c) * len(c["coefficients"]),
             expected_counts=_chain_counts, invariant=_chain_invariant),
    Workload("ensemble", _ensemble_config, "events",
             work=lambda c: c["n_samples"],
             expected_counts=_ensemble_counts, invariant=_ensemble_invariant),
    Workload("trajectory", _trajectory_config, "branch_steps",
             work=lambda c: c["evolution"]["n_steps"],
             expected_counts=_trajectory_counts,
             invariant=_trajectory_invariant),
)}
