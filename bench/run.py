"""qcollapse benchmark: one workload, one caller, closed loop.

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Builds the workload's scenario config from the seed and runs it through the
public ``scenarios.parse_config`` + ``scenarios.run`` (the ``qcollapse
simulate`` path without argparse), one run at a time, until ``--seconds``
have passed after one warm-up run.  Every run is checked; see ``check``.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics.  It prints a table (median, quartiles and sample count per metric)
and the environment, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scenario output goes
to a temporary directory under ``.bench_out/`` in the checkout, removed at
exit.  It exits 0 when every check passed, 1 otherwise.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, config_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Reference wall time of calibration_kernel: about its time on the 2-CPU
# Xeon VM the benchmark was defined on when that host was quiet.  Timings
# are reported at this machine speed.
REF_KERNEL_S = 0.2

# Fresh interpreter -> `import qcollapse.cli` + `load_config`; prints the
# import time so the traced run can report cli.import_s.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qcollapse.cli
t1 = time.perf_counter()
from qcollapse.scenarios import load_config
load_config(sys.argv[2])
print(t1 - t0)
"""


def calibration_kernel() -> float:
    """Wall seconds of a fixed mix of the kinds of work the workloads do:
    FFT round trips with phase multiplies at N=2048 and N=8192, and
    small-object work (seeded generator construction, JSON encoding)."""
    start = time.perf_counter()
    for n, reps in ((2048, 800), (8192, 200)):
        x = np.linspace(-40.0, 40.0, n)
        a = np.exp(-x * x / 4.0 + 0.5j * x)
        phase = np.exp(-0.005j * x * x)
        for _ in range(reps):
            a = phase * np.fft.ifft(phase * np.fft.fft(a))
    for i in range(6000):
        json.dumps({"seed": i, "u": np.random.default_rng(i).random()})
    return time.perf_counter() - start


class SpeedReference:
    """Tracks the machine's speed, which drifts on a shared host by far more
    than the bounds, by running calibration_kernel between measurements."""

    def __init__(self):
        self.last = calibration_kernel()

    def scale(self) -> float:
        """REF_KERNEL_S over the mean kernel time just before and just after
        the measurement taken since the previous call."""
        now = calibration_kernel()
        mean = 0.5 * (self.last + now)
        self.last = now
        return REF_KERNEL_S / mean


@dataclass
class Repeat:
    seconds: Optional[float] = None
    scale: float = 1.0  # SpeedReference.scale() around this run
    problem: Optional[str] = None
    files: Dict[str, int] = field(default_factory=dict)  # artifact -> bytes
    diag_rows: int = 0
    trace: Optional[dict] = None


def load_program():
    """Import qcollapse from the checkout's src/, never from elsewhere."""
    if not (SRC / "qcollapse" / "__init__.py").is_file():
        sys.exit(f"error: no qcollapse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcollapse.cli  # noqa: F401  (the tracer wraps the cli layer too)
    from qcollapse import scenarios
    if SRC not in Path(scenarios.__file__).resolve().parents:
        sys.exit(f"error: qcollapse imported from {scenarios.__file__}")
    return scenarios


def artifact_digest(run_dir: Path) -> str:
    """sha256 over every artifact except manifest.json (it holds wall time)."""
    h = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs the workload's scenario and checks each run."""

    def __init__(self, scenarios, workload, cfg: dict, tmp: Path):
        self.scenarios = scenarios
        self.workload = workload
        self.cfg = cfg
        self.text = config_text(cfg)
        self.tmp = tmp
        self.reference: Optional[str] = None
        self.repeats: List[Repeat] = []

    def run(self, tracer: Optional[Tracer] = None) -> Repeat:
        rep = Repeat()
        self.repeats.append(rep)
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        gc.collect()
        try:
            with tracer.installed() if tracer else nullcontext():
                cfg = self.scenarios.parse_config(self.text)
                start = time.perf_counter()
                manifest = self.scenarios.run(cfg, out_override=str(out))
                rep.seconds = time.perf_counter() - start
            rep.problem = self.check(manifest, rep)
        except Exception:
            rep.problem = traceback.format_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if rep.problem:
            print(f"run {len(self.repeats)} failed: {rep.problem}",
                  file=sys.stderr)
        return rep

    def check(self, manifest, rep: Repeat) -> Optional[str]:
        """A run fails if its manifest is not ok, a physics invariant misses
        its tolerance, or its artifacts differ byte-wise from the first run
        of this invocation (same seed, same config)."""
        if not manifest.ok:
            failed = [a.name for a in manifest.assertions if not a.passed]
            return f"manifest not ok: error={manifest.error} failed={failed}"
        run_dir = Path(manifest.run_dir)
        rep.files = {p.name: p.stat().st_size for p in run_dir.iterdir()}
        diag = run_dir / "diagnostics.csv"
        if diag.exists():
            rep.diag_rows = len(diag.read_text().splitlines()) - 1
        problem = self.workload.invariant(self.cfg, run_dir)
        if problem:
            return problem
        digest = artifact_digest(run_dir)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return "artifacts differ from the first run of this seed"
        return None


def measure_setup(config_path: Path, speed: SpeedReference):
    """Wall time of SETUP_REPEATS fresh processes, after one untimed one that
    fills the bytecode and page caches, each with its speed scale; also their
    in-process import times."""
    walls, imports = [], []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        scale = speed.scale()
        if i:
            walls.append((wall, scale))
            imports.append(float(proc.stdout))
    return walls, imports


def lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=30, env={**os.environ, "LC_ALL": "C"}
                             ).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    fields = dict(line.split(":", 1) for line in out.splitlines()
                  if ":" in line)
    return {key: fields.get(name, "unknown").strip()
            for key, name in (("cpu_model", "Model name"),
                              ("l2_cache", "L2 cache"),
                              ("l3_cache", "L3 cache"))}


def environment(workload, cfg: dict) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), **lscpu(),
            "workload": workload.name, **workload.shape(cfg)}


def quartiles(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(runner: Runner, plain: List[Repeat], setup):
    """name -> samples (one per run, or one per set-up process); times at
    the reference machine speed."""
    work = runner.workload.work(runner.cfg)
    times = [r.seconds * r.scale for r in plain if r.seconds is not None]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"run_s": times,
            "work_per_s": [work / t for t in times],
            "setup_s": [wall * scale for wall, scale in setup],
            "peak_rss_mib": [rss_mib]}


def per_layer(runner: Runner, traced: List[Repeat], overhead: float,
              imports: List[float], tracer: Tracer, names: List[str]):
    """name -> samples, one per traced run; counts repeat exactly."""
    branch_steps = runner.workload.branch_steps(runner.cfg)

    def per_run(fn):
        return [fn(r.trace, r) for r in traced]

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "propagate.evolve.us_per_step": per_run(
            lambda t, r: 1e6 * ratio(t["self_s"]["propagate.evolve"],
                                     t["tally"]["propagate.evolve"])),
        "numpy.fft.calls_per_branch_step": per_run(
            lambda t, r: ratio(t["calls"]["numpy.fft"], branch_steps)),
        "numpy.fft.bytes_computed": per_run(
            lambda t, r: t["tally"]["numpy.fft"]),
        "diagnostics.recorded_ratio": per_run(
            lambda t, r: ratio(r.diag_rows,
                               t["calls"]["diagnostics.packet_summary"])),
        "grid.write_snapshot.bytes": per_run(
            lambda t, r: t["tally"]["grid.write_snapshot"]),
        "grid.wavefunction.constructions": per_run(
            lambda t, r: t["calls"]["grid.wavefunction"]),
        "scenarios.artifact_bytes": per_run(
            lambda t, r: sum(size for name, size in r.files.items()
                             if name != "manifest.json")),
        "cli.import_s": imports,
        "trace.overhead_ratio": [overhead],
    }
    generic = {
        "calls": lambda name: per_run(lambda t, r: t["calls"][name]),
        "self_s": lambda name: per_run(lambda t, r: t["self_s"][name]),
        "us_per_call": lambda name: per_run(
            lambda t, r: 1e6 * ratio(t["span_s"][name], t["spans"][name])),
    }

    def samples(metric):
        if metric in special:
            return special[metric]
        name, kind = metric.rsplit(".", 1)
        if name not in tracer.names or kind not in generic:
            raise KeyError(f"unknown per-layer metric {metric!r}")
        return generic[kind](name)

    return {metric: samples(metric) for metric in names}


def count_problems(workload, cfg: dict, traced: List[Repeat]) -> None:
    """A traced run fails if a call count misses its analytic value or any
    count differs from the first traced run."""
    expected = workload.expected_counts(cfg)
    first = traced[0].trace
    for rep in traced:
        calls = rep.trace["calls"]
        wrong = {k: (calls[k], v) for k, v in expected.items()
                 if calls[k] != v}
        if wrong:
            rep.problem = rep.problem or f"trace counts (got, analytic): {wrong}"
        elif (calls, rep.trace["tally"]) != (first["calls"], first["tally"]):
            rep.problem = rep.problem or "trace counts differ between runs"
        if rep.problem:
            print(f"traced run failed: {rep.problem}", file=sys.stderr)


def _row(name: str, values: List[float], unit: str) -> float:
    value = statistics.median(values)
    q1, q3 = quartiles(values)
    print(f"{name:40s} {value:14.6g} {q1:14.6g} {q3:14.6g} "
          f"{len(values):4d}  {unit}")
    return value


def report(spec_metrics: List[dict], samples: Dict[str, List[float]],
           repeats: List[Repeat], env: dict, mode: str, info) -> dict:
    """Print the table and return the result object; `info` rows are printed
    but are not metrics."""
    attempted = len(repeats)
    failed = sum(1 for r in repeats if r.problem)
    print(f"# {mode}  environment: {json.dumps(env, sort_keys=True)}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'n':>4s}  unit")
    metrics = {m["name"]: {"value": _row(m["name"], samples[m["name"]],
                                         m["unit"]),
                           "unit": m["unit"]}
               for m in spec_metrics}
    print(f"{'failed_ratio':40s} {failed / attempted:14.6g} {'':29s} "
          f"{attempted:4d}  ratio")
    for row in info:
        _row(*row)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced inputs for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scenarios = load_program()
    workload = WORKLOADS[args.workload]
    # Scenario seeds must be non-negative; collapse_sample uses seed + i.
    cfg = workload.config(args.seed % 2**31, args.size == "small")
    OUT_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        config_path = tmp / "config.yaml"
        config_path.write_text(config_text(cfg))
        speed = SpeedReference()
        setup, imports = measure_setup(config_path, speed)
        runner = Runner(scenarios, workload, cfg, tmp)
        tracer = Tracer() if args.trace else None
        runner.run()  # warm-up; its artifacts are the byte-identity reference
        speed.scale()
        plain: List[Repeat] = []
        traced: List[Repeat] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            rep = runner.run()
            plain.append(rep)
            if tracer:
                tracer.reset()
                rep = runner.run(tracer)
                rep.trace = tracer.snapshot()
                traced.append(rep)
            else:
                rep.scale = speed.scale()
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    times = [r.seconds for r in plain if r.seconds is not None]
    traced_times = [r.seconds for r in traced if r.seconds is not None]
    if not times or (tracer and not traced_times):
        print("error: no run completed", file=sys.stderr)
        return 1
    env = environment(workload, cfg)
    if tracer:
        count_problems(workload, cfg, traced)
        overhead = statistics.median(traced_times) / statistics.median(times)
        samples = per_layer(runner, traced, overhead, imports, tracer,
                            [m["name"] for m in spec["per_layer"]])
        result = report(spec["per_layer"], samples, runner.repeats, env,
                        "traced", [])
    else:
        samples = end_to_end(runner, plain, setup)
        raw = [("run_s, raw wall", times, "s"),
               ("setup_s, raw wall", [wall for wall, _ in setup], "s"),
               ("speed scale", [r.scale for r in plain], "ratio")]
        result = report(spec["end_to_end"], samples, runner.repeats, env,
                        "untraced", raw)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
