"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
has its own peak resident memory and no state carried from the last. It
prints one JSON line: set-up and measured-phase host seconds, the
packets offered, delivered and dropped, the simulated time and events
advanced, the digest of the simulated outputs, the peak RSS, the
workload's exact counts and, when asked, the per-layer trace and the
micro-benchmarks.

    python3 perfbench/rep.py --workload rack_fluid --seed 1 [--trace] [--micro]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import repro from
    there; any other copy would benchmark the wrong program."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def digest(observables: dict) -> str:
    blob = json.dumps(observables, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="wrap every layer's entry points and report them")
    parser.add_argument("--micro", action="store_true",
                        help="also time the isolated hot primitives")
    args = parser.parse_args(argv)

    _import_program()
    tracer = None
    if args.trace:
        # Before anything builds a simulator: see perfbench.layers.
        from perfbench.layers import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    gc.collect()
    t0 = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - t0
    # Set-up garbage is set-up's cost, not the measured phase's.
    gc.collect()
    if tracer is not None:
        tracer.start()
    t0 = time.perf_counter()
    workload.run()
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    out = workload.outcome()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "offered": out.offered,
        "delivered": out.delivered,
        "drops": out.drops,
        "sim_ns": out.sim_ns,
        "events": out.events,
        "digest": digest(out.observables),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": out.counts,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["self_ns_total"] = sum(tracer.self_ns)
        result["inside_ns"] = tracer.inside_ns
    if args.micro:
        from perfbench.micro import run_all

        result["micro"] = run_all()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
