"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 60 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` is the separate traced run
and prints every per-layer metric (a layer that is not on the workload's
path reads 0 with 0 samples).  The lines before the last are a table of
the metrics with their units and sample counts and one JSON report with
the config fingerprint; the last line is the result object.  Each
workload's work is fixed, sized to take about ``--seconds`` on a 2-CPU
host, so the run length does not depend on how fast the host is.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402  (after the path is set)

WORKLOADS = ("compile-suite", "service-cold")


def _declared(trace: bool) -> list[dict]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="compile-suite without the 16-point IDFT, for the self-test "
        "(not comparable to full runs)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(
            f"perfbench: no program sources at {common.SRC}; run from the "
            "root of a full checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, common.SRC)
    # A SIGTERM unwinds like an error, so the servers a run started are
    # stopped by their ``finally`` blocks instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    if args.workload == "compile-suite":
        import compile_suite

        result = compile_suite.run(args.seed, trace, args.short)
        generation = compile_suite.GENERATION
    else:
        import services

        result = services.run(args.seed, trace)
        generation = services.GENERATION

    measured = result["metrics"].values
    metrics = {}
    for entry in _declared(trace):
        name, unit = entry["name"], entry["unit"]
        value = measured.pop(name, None)
        if value is None:
            if not trace:
                raise RuntimeError(f"{args.workload} did not measure {name}")
            value = {"value": 0.0, "unit": unit, "samples": 0}
        if value["unit"] != unit:
            raise RuntimeError(f"{name}: unit {value['unit']} != {unit}")
        metrics[name] = value
    if measured:
        raise RuntimeError(f"undeclared metrics {sorted(measured)}")

    for name, value in metrics.items():
        print(f"{name:40s} {value['value']:>16.6g} {value['unit']:10s} "
              f"n={value['samples']}")
    report = {
        "fingerprint": common.fingerprint(
            args.workload, args.seed, generation, short=args.short
        ),
        "metrics": metrics,
        "detail": result["detail"],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value["value"], "unit": value["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
