#!/usr/bin/env python3
"""CI gate over the bench artifacts; fails (exit 1) on any violation.

Each artifact is validated when passed:

  * ``--clustering BENCH_perf_clustering.json`` — required keys present,
    all values finite, ``deterministic`` == 1.
  * ``--table1 BENCH_table1_cost.json`` — the three reduction ratios
    present and finite.
  * ``--route BENCH_perf_route.json [--route-baseline OLD.json]`` —
    required keys present, all values finite, and ``deterministic`` == 1
    (routing identical at 1 thread and at nproc). With a baseline
    artifact, the deterministic search-effort counts ``nodes_expanded``
    and ``heap_pushes`` must not exceed the baseline's; both artifacts
    must record the same ``testbench``, otherwise the gate fails as not
    comparable.
  * ``--placer BENCH_perf_placer.json [--placer-baseline OLD.json]`` —
    required keys present and finite, ``bit_identical`` == 1 (1-thread
    and 8-thread placements identical); with a baseline artifact, the
    disabled-instrumentation overhead gate compares ``place_ms`` and fails
    when the new run is more than ``--max-placer-regress`` (default 2%)
    slower. The comparison only applies when both artifacts measured the
    same problem size (``largest_n``); otherwise it is reported as
    skipped (CI smoke runs a much smaller n than the committed artifact).

Usage: bench_gate.py [--clustering FILE] [--table1 FILE]
       [--route FILE [--route-baseline FILE]]
       [--placer FILE [--placer-baseline FILE] [--max-placer-regress R]]
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def load_metrics(path: str, failures: list[str]) -> dict | None:
    """Loads a bench artifact; returns its metrics dict or None on error."""
    try:
        with open(path, encoding="utf-8") as handle:
            artifact = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        failures.append(f"{path}: unreadable or malformed JSON ({err})")
        return None
    metrics = artifact.get("metrics")
    if not isinstance(metrics, dict):
        failures.append(f"{path}: missing top-level 'metrics' object")
        return None
    return metrics


def require_finite(
    metrics: dict, keys: list[str], path: str, failures: list[str]
) -> bool:
    """Checks every key is present and a finite number."""
    ok = True
    for key in keys:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failures.append(f"{path}: '{key}' missing or not a number")
            ok = False
        elif not math.isfinite(value):
            failures.append(f"{path}: '{key}' = {value!r} is not finite")
            ok = False
    return ok


def gate_clustering(path: str, failures: list[str]) -> None:
    metrics = load_metrics(path, failures)
    if metrics is None:
        return
    keys = ["largest_n", "dense_ms", "lanczos_ms", "embedding_speedup",
            "deterministic"]
    if require_finite(metrics, keys, path, failures):
        if metrics["deterministic"] != 1:
            failures.append(
                f"{path}: deterministic = {metrics['deterministic']!r} "
                "(clustering must be bit-identical across thread counts)"
            )
        else:
            print(f"{path}: keys present, values finite OK")


def gate_table1(path: str, failures: list[str]) -> None:
    metrics = load_metrics(path, failures)
    if metrics is None:
        return
    keys = ["wirelength_reduction", "area_reduction", "delay_reduction"]
    if require_finite(metrics, keys, path, failures):
        print(f"{path}: keys present, values finite OK")


def gate_route(args, failures: list[str]) -> None:
    metrics = load_metrics(args.route, failures)
    if metrics is None:
        return
    keys = [
        "testbench", "route_ms", "route_mt_ms", "nodes_expanded",
        "heap_pushes", "window_retries", "meets", "maze_invocations",
        "oracle_calls", "oracle_nodes", "wirelength_um", "overflow",
        "deterministic",
    ]
    if not require_finite(metrics, keys, args.route, failures):
        return
    if metrics["deterministic"] != 1:
        failures.append(
            f"{args.route}: deterministic = {metrics['deterministic']!r} "
            "(routing must be identical at 1 thread and at nproc)"
        )
        return
    print(f"{args.route}: keys present, values finite, deterministic OK")

    if not args.route_baseline:
        return
    baseline = load_metrics(args.route_baseline, failures)
    if baseline is None:
        return
    effort = ["nodes_expanded", "heap_pushes"]
    if not require_finite(
        baseline, ["testbench"] + effort, args.route_baseline, failures
    ):
        return
    if baseline["testbench"] != metrics["testbench"]:
        failures.append(
            f"route effort gate: testbench {metrics['testbench']} vs "
            f"baseline testbench {baseline['testbench']} — not comparable "
            "(run bench_perf_route on the committed testbench)"
        )
        return
    for key in effort:
        if metrics[key] > baseline[key]:
            failures.append(
                f"{args.route}: {key} = {metrics[key]:.0f} exceeds the "
                f"baseline's {baseline[key]:.0f} (testbench "
                f"{metrics['testbench']:.0f})"
            )
        else:
            print(
                f"route {key} = {metrics[key]:.0f} <= baseline "
                f"{baseline[key]:.0f} OK"
            )


def gate_placer(args, failures: list[str]) -> None:
    metrics = load_metrics(args.placer, failures)
    if metrics is None:
        return
    keys = ["largest_n", "place_ms", "bit_identical"]
    if not require_finite(metrics, keys, args.placer, failures):
        return
    if metrics["bit_identical"] != 1:
        failures.append(
            f"{args.placer}: bit_identical = {metrics['bit_identical']!r}"
        )
        return
    print(f"{args.placer}: keys present, values finite OK")

    if not args.placer_baseline:
        return
    baseline = load_metrics(args.placer_baseline, failures)
    if baseline is None:
        return
    if not require_finite(
        baseline, ["largest_n", "place_ms"], args.placer_baseline, failures
    ):
        return
    if baseline["largest_n"] != metrics["largest_n"]:
        print(
            f"placer overhead gate: largest_n differs "
            f"({baseline['largest_n']} baseline vs {metrics['largest_n']} "
            "current) — not comparable, skipped"
        )
        return
    if baseline["place_ms"] <= 0:
        print("placer overhead gate: baseline place_ms <= 0, skipped")
        return
    regress = metrics["place_ms"] / baseline["place_ms"] - 1.0
    if regress > args.max_placer_regress:
        failures.append(
            f"placer place_ms regressed {regress * 100.0:.2f}% "
            f"({baseline['place_ms']:.1f} ms -> {metrics['place_ms']:.1f} ms; "
            f"limit {args.max_placer_regress * 100.0:.1f}%)"
        )
    else:
        print(
            f"placer place_ms within budget: {regress * 100.0:+.2f}% vs "
            f"baseline (limit +{args.max_placer_regress * 100.0:.1f}%)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clustering", help="validate BENCH_perf_clustering.json")
    parser.add_argument("--table1", help="validate BENCH_table1_cost.json")
    parser.add_argument("--route", help="validate BENCH_perf_route.json")
    parser.add_argument(
        "--route-baseline",
        help="committed BENCH_perf_route.json for the search-effort gate",
    )
    parser.add_argument("--placer", help="validate BENCH_perf_placer.json")
    parser.add_argument(
        "--placer-baseline",
        help="committed BENCH_perf_placer.json for the overhead gate",
    )
    parser.add_argument(
        "--max-placer-regress",
        type=float,
        default=0.02,
        help="max fractional place_ms regression vs --placer-baseline",
    )
    args = parser.parse_args()
    if not (args.clustering or args.table1 or args.route or args.placer):
        parser.error("no artifact to gate")

    failures: list[str] = []
    if args.clustering:
        gate_clustering(args.clustering, failures)
    if args.table1:
        gate_table1(args.table1, failures)
    if args.route:
        gate_route(args, failures)
    if args.placer:
        gate_placer(args, failures)

    if failures:
        for failure in failures:
            print(f"BENCH GATE FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
