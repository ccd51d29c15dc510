"""Host-time benchmark of the repro simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs repetitions of one workload, each in a fresh interpreter
(``perfbench/rep.py``), until ``--seconds`` have passed, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Untraced (``--trace 0``) the metrics are the end-to-end ones,
each the median over the repetitions; traced (``--trace 1``) they are the
per-layer ones. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOAD_NAMES = ("ddio_rx_exact", "bulk_tx_exact", "rack_fluid", "policy_churn")
#: The seed whose digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: A repetition that takes longer than this is a hang.
REP_TIMEOUT_S = 150

#: Layers whose call count must be zero on a workload, and why: if one of
#: these moves, the workload stopped isolating the layers it was chosen for.
PREDICTED_ZERO = {
    "host.cache.calls": ("bulk_tx_exact", "rack_fluid", "policy_churn"),
    "sim.fastforward.calls": ("ddio_rx_exact", "bulk_tx_exact"),
    "net.switch.calls": ("ddio_rx_exact", "bulk_tx_exact", "policy_churn"),
    "interpose.fastpath.calls": ("bulk_tx_exact",),
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: recorded beside every result so
    numbers from different machines are not compared blindly. Results are
    never divided by it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - t0


def run_rep(workload: str, seed: int, trace: bool = False,
            micro: bool = False) -> Dict[str, object]:
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if micro:
        cmd.append("--micro")
    # A fixed hash seed keeps set iteration order, and so the simulated
    # schedule, identical in every repetition.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: repetition failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, min_reps: int,
             **kwargs) -> List[Dict[str, object]]:
    reps: List[Dict[str, object]] = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        reps.append(run_rep(workload, seed, **kwargs))
    return reps


def account(reps: List[Dict[str, object]], workload: str, seed: int):
    """(attempted, failed, digest problems). A repetition whose digest is
    not the pinned one (default seed) or not its set's majority (any other
    seed) counts every packet it offered as failed; otherwise its failures
    are the packets neither delivered nor dropped by the model."""
    if seed == DEFAULT_SEED:
        with open(DIGESTS) as f:
            expected = json.load(f)[workload]
    else:
        expected = Counter(r["digest"] for r in reps).most_common(1)[0][0]
    attempted = failed = 0
    problems = []
    for r in reps:
        attempted += r["offered"]
        if r["digest"] != expected:
            failed += r["offered"]
            problems.append(f"digest {r['digest']} != {expected}")
        else:
            failed += abs(r["offered"] - r["delivered"] - r["drops"])
    return attempted, failed, problems


def end_to_end(reps: List[Dict[str, object]]) -> Dict[str, float]:
    """Each end-to-end metric as the median over the repetitions."""
    med = statistics.median
    return {
        "pkts_per_wall_s": med(r["delivered"] / r["wall_s"] for r in reps),
        "sim_ns_per_wall_s": med(r["sim_ns"] / r["wall_s"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


def trace_checks(workload: str, traced: List[Dict[str, object]]) -> Dict[str, bool]:
    """The traced run's own tests: the split sums to the traced wall, call
    counts repeat exactly, and the predicted-zero cells hold."""
    checks = {
        "sum_to_wall": all(r["self_ns_total"] == r["inside_ns"]
                           and r["layers"]["unattributed.self_ms"] >= 0
                           for r in traced),
        "calls_repeat": len({json.dumps({k: v for k, v in r["layers"].items()
                                         if k.endswith(".calls")}, sort_keys=True)
                             for r in traced}) == 1,
    }
    for metric, workloads in PREDICTED_ZERO.items():
        if workload in workloads:
            checks[f"zero:{metric}"] = all(r["layers"][metric] == 0 for r in traced)
    return checks


def per_layer(untraced: Dict[str, object], traced: List[Dict[str, object]],
              calib_s: float) -> Dict[str, float]:
    """Layer times as medians over the traced repetitions (their call
    counts are identical); exact counts, micro-benchmarks and the wall per
    event from the untraced repetition."""
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["unattributed.trace_overhead"] = traced_wall / untraced["wall_s"]
    values["sim.wall_ns_per_event"] = (
        untraced["wall_s"] * 1e9 / max(untraced["events"], 1))
    values.update(untraced["counts"])
    values.update(untraced["micro"])
    values["env.calib_s"] = calib_s
    return values


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: no program to measure: src/repro is missing")

    calib_s = calibrate()
    print(json.dumps({"env": {"python": platform.python_version(),
                              "nproc": os.cpu_count(), "calib_s": calib_s}}))
    if args.trace:
        untraced = run_rep(args.workload, args.seed, micro=True)
        traced = run_reps(args.workload, args.seed, args.seconds,
                          MIN_TRACED_REPS, trace=True)
        reps = [untraced] + traced
        checks = trace_checks(args.workload, traced)
        values = per_layer(untraced, traced, calib_s)
        units = declared("per_layer")
    else:
        reps = run_reps(args.workload, args.seed, args.seconds, MIN_REPS)
        checks = {}
        values = end_to_end(reps)
        units = declared("end_to_end")
    attempted, failed, problems = account(reps, args.workload, args.seed)
    print(json.dumps({
        "reps": len(reps), "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "digests": sorted({r["digest"] for r in reps}),
        "fail_rate": failed / attempted, "checks": checks, "problems": problems,
    }))
    correct = failed == 0 and not problems and all(checks.values())
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
