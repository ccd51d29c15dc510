"""Command-line entry point.

Usage::

    python -m repro report [--quick]   # run every experiment, print tables
    python -m repro matrix             # just the E3 capability matrix
    python -m repro costs              # dump the calibrated cost model
    python -m repro e1 .. e18 | e21 .. e23 | f1 | s1  # one experiment's table
    python -m repro trace [plane] [--out FILE]   # traced run -> Chrome JSON
    python -m repro profile <exp> [--top N]      # cProfile one experiment
"""

from __future__ import annotations

import sys

from .config import DEFAULT_COSTS


def _experiment_mains():
    from .experiments.report import SECTIONS

    return {name: main_fn for name, (_title, main_fn) in SECTIONS.items()}


def _trace_main(argv: "list[str]") -> int:
    """Run one plane's traced bulk TX and export a Chrome/Perfetto trace.

    ``repro trace [plane] [--out FILE]`` — plane defaults to ``kernel``;
    without ``--out`` the stage report prints instead of writing JSON.
    Load the file at ui.perfetto.dev or chrome://tracing.
    """
    import json
    from dataclasses import replace

    from .experiments.common import planes_under_test, run_bulk_tx
    from .trace import to_trace_events, write_trace

    out = None
    args = list(argv)
    if "--out" in args:
        i = args.index("--out")
        try:
            out = args[i + 1]
        except IndexError:
            print("trace: --out needs a path", file=sys.stderr)
            return 2
        del args[i:i + 2]
    plane_name = args[0] if args else "kernel"
    by_name = {cls.name: cls for cls in planes_under_test()}
    if plane_name not in by_name:
        print(f"trace: unknown plane {plane_name!r}; "
              f"choose from {sorted(by_name)}", file=sys.stderr)
        return 2
    traced = replace(DEFAULT_COSTS, trace=True)
    row = run_bulk_tx(by_name[plane_name], 1_458, 64, costs=traced,
                      return_tb=True)
    tracer = row.pop("tb").machine.tracer
    if out is not None:
        n = write_trace(tracer, out)
        print(f"{plane_name}: wrote {n} trace events to {out}")
    else:
        report = tracer.report()
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"({len(to_trace_events(tracer))} trace events; "
              f"re-run with --out FILE for Perfetto JSON)")
    return 0


def _profile_main(argv: "list[str]") -> int:
    """Run one plane or experiment under cProfile and print the hottest
    functions.

    ``repro profile <plane|experiment> [--top N]`` — a plane name
    (``kernel``, ``kopi``, ...) profiles that plane's bulk-TX run (the
    same workload ``repro trace`` uses); an experiment key (``e1`` ..
    ``e23``, ``f1``, ``s1``) profiles that experiment's ``main``. N
    defaults to 30 cumulative-time rows. The run's own table is
    suppressed; this command answers "where does the wall clock go", not
    "what did the run conclude".
    """
    import cProfile
    import pstats

    from .experiments.common import planes_under_test, run_bulk_tx

    top = 30
    args = list(argv)
    if "--top" in args:
        i = args.index("--top")
        try:
            top = int(args[i + 1])
        except (IndexError, ValueError):
            print("profile: --top needs an integer", file=sys.stderr)
            return 2
        del args[i:i + 2]
    if not args:
        print("profile: profile what? e.g. `repro profile kopi` or "
              "`repro profile e22`", file=sys.stderr)
        return 2
    name = args[0]
    mains = _experiment_mains()
    planes = {cls.name: cls for cls in planes_under_test()}
    if name in planes:
        def target() -> None:
            run_bulk_tx(planes[name], 1_458, 4_096)
    elif name in mains:
        target = mains[name]
    else:
        print(f"profile: unknown target {name!r}; choose a plane "
              f"({sorted(planes)}) or experiment ({sorted(mains)})",
              file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    profiler.enable()
    target()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return 0


def main(argv: "list[str]") -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd = argv[0]
    if cmd == "report":
        from .experiments.report import main as report_main

        print(report_main(argv[1:]))
        return 0
    if cmd == "matrix":
        from .experiments.e3_capability_matrix import main as e3_main

        print(e3_main())
        return 0
    if cmd == "trace":
        return _trace_main(argv[1:])
    if cmd == "profile":
        return _profile_main(argv[1:])
    if cmd == "costs":
        for key, value in DEFAULT_COSTS.describe().items():
            print(f"{key} = {value}")
        return 0
    mains = _experiment_mains()
    if cmd in mains:
        print(mains[cmd]())
        return 0
    print(f"unknown command {cmd!r}; try --help", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
