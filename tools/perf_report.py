#!/usr/bin/env python3
"""Hotspot / utilization / memory report over the run's telemetry artifacts.

Merges any subset of the artifacts one flow run produces —

  * ``--trace trace.json`` — Chrome trace-event JSON ("ph":"X" complete
    events). Reports per-span-name total and SELF time (total minus the
    time spent in directly nested spans on the same thread), call counts,
    and per-thread busy time.
  * ``--metrics metrics.jsonl`` — one convergence-series sample per line
    (``"type":"sample"``). Reports each series' length and its first and
    last values.
  * ``--manifest run.manifest.json`` — run manifest (schema
    autoncs-run-manifest/5). Reports the build (type and the dense
    eigensolver's dispatched ISA variant), stage wall-clock, scheduler
    utilization per pool label (per-worker busy fractions busy_ns /
    wall_ns, parks, hand-offs caught spinning vs woken from park, block
    imbalance histogram), routing effort (including the executed reroute
    passes and the failed wires), and the memory section (peak RSS,
    per-stage RSS samples, instrumented structure footprints).
  * ``--flight flight.json`` — crash flight-recorder dump (schema
    autoncs-flight/1). Reports ring occupancy and the tail of the event
    log.
  * ``--history DIR`` — a directory of historical run manifests; prints a
    per-manifest trend line of total wall-clock and peak RSS.
  * ``--diff A B`` — two Chrome traces of comparable runs; attributes the
    per-span SELF-time deltas from A to B, largest absolute delta first,
    so a change shows which layer moved.

Exits 1 when any artifact passed on the command line is missing,
unparsable, or fails its schema sanity check — CI uses this as the
telemetry-artifact smoke gate. Stdlib only.

Usage: perf_report.py [--trace F] [--metrics F] [--manifest F]
                      [--flight F] [--history DIR] [--diff A B] [--top N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


class ArtifactError(Exception):
    """A named artifact is missing, malformed, or fails a schema check."""


def load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise ArtifactError(f"{path}: cannot read ({err})") from err
    except json.JSONDecodeError as err:
        raise ArtifactError(f"{path}: malformed JSON ({err})") from err


def fmt_ms(us: float) -> str:
    return f"{us / 1000.0:10.2f}"


def fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:8.1f} {unit}"
        value /= 1024.0
    return f"{value:8.1f} GiB"


def section(title: str) -> None:
    print(f"\n== {title}")


# ---------------------------------------------------------------- trace

def span_table(path: str) -> tuple[int, dict[str, list[float]], dict[int, float]]:
    """Reads a trace: (span count, name -> [total_us, self_us, count],
    tid -> top-level span time)."""
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ArtifactError(f"{path}: missing 'traceEvents' array")
    events = []
    for e in doc["traceEvents"]:
        if not isinstance(e, dict) or e.get("ph") != "X":
            continue
        try:
            events.append(
                (int(e["tid"]), float(e["ts"]), float(e["dur"]), str(e["name"]))
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ArtifactError(
                f"{path}: bad trace event {e!r} ({err})"
            ) from err

    # Self-time attribution: within one thread, spans nest by interval
    # containment (the exporter orders equal-ts events enclosing-first).
    # A scan with an open-span stack credits each span its duration minus
    # the durations of its DIRECTLY nested children, charged at pop time.
    by_name: dict[str, list[float]] = {}  # name -> [total_us, self_us, count]
    by_tid: dict[int, float] = {}
    tids: dict[int, list[tuple[float, float, str]]] = {}
    for tid, ts, dur, name in events:
        tids.setdefault(tid, []).append((ts, dur, name))

    def pop_frame(stack: list[list]) -> None:
        _end, name, dur, child_us = stack.pop()
        by_name[name][1] += max(dur - child_us, 0.0)

    for tid, spans in sorted(tids.items()):
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: list[list] = []  # [end_us, name, dur_us, child_us]
        top_level = 0.0
        for ts, dur, name in spans:
            while stack and ts >= stack[-1][0] - 1e-9:
                pop_frame(stack)
            if stack:
                stack[-1][3] += dur
            else:
                top_level += dur
            entry = by_name.setdefault(name, [0.0, 0.0, 0])
            entry[0] += dur
            entry[2] += 1
            stack.append([ts + dur, name, dur, 0.0])
        while stack:
            pop_frame(stack)
        by_tid[tid] = top_level
    return len(events), by_name, by_tid


def report_trace(path: str, top: int) -> None:
    count, by_name, by_tid = span_table(path)
    section(f"trace hotspots ({path}: {count} spans)")
    if not count:
        print("  (empty trace)")
        return

    ranked = sorted(by_name.items(), key=lambda kv: -kv[1][1])
    print(f"  {'span':34} {'count':>7} {'total ms':>10} {'self ms':>10}")
    for name, (total, self_us, count) in ranked[:top]:
        print(f"  {name:34} {count:7d} {fmt_ms(total)} {fmt_ms(self_us)}")

    # The objective's spans nest under place/cg (the lambda_0 probe's two
    # calls sit outside it); what they leave is CG's own line search and
    # vector updates.
    cg = by_name.get("place/cg")
    if cg is not None and cg[0] > 0.0:
        section("CG split (share of place/cg)")
        for name in ("place/wa", "place/density", "place/density_replay"):
            total = by_name.get(name, [0.0])[0]
            print(f"  {name:34} {fmt_ms(total)} ms {100.0 * total / cg[0]:6.1f}%")
        print(f"  {'place/cg self':34} {fmt_ms(cg[1])} ms "
              f"{100.0 * cg[1] / cg[0]:6.1f}%")

    section("trace per-thread busy time")
    for tid in sorted(by_tid):
        print(f"  tid {tid:3d}: top-level span time {fmt_ms(by_tid[tid])} ms")


def report_diff(path_a: str, path_b: str, top: int) -> None:
    """Per-span self-time deltas from trace A to trace B, largest first."""
    _, spans_a, _ = span_table(path_a)
    _, spans_b, _ = span_table(path_b)
    section(f"self-time diff (A = {path_a}, B = {path_b})")
    rows = []
    for name in spans_a.keys() | spans_b.keys():
        a = spans_a.get(name, [0.0, 0.0, 0])
        b = spans_b.get(name, [0.0, 0.0, 0])
        rows.append((name, a, b, b[1] - a[1]))
    rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    print(f"  {'span':34} {'count A':>8} {'count B':>8} {'self A ms':>10} "
          f"{'self B ms':>10} {'delta ms':>10} {'delta':>8}")
    for name, a, b, delta in rows[:top]:
        share = f"{100.0 * delta / a[1]:+7.1f}%" if a[1] > 0.0 else "     new"
        print(f"  {name:34} {a[2]:8d} {b[2]:8d} {fmt_ms(a[1])} {fmt_ms(b[1])} "
              f"{fmt_ms(delta)} {share}")
    total_a = sum(a[1] for a in spans_a.values())
    total_b = sum(b[1] for b in spans_b.values())
    print(f"  {'(all spans)':34} {'':8} {'':8} {fmt_ms(total_a)} "
          f"{fmt_ms(total_b)} {fmt_ms(total_b - total_a)}")


# -------------------------------------------------------------- metrics

def report_metrics(path: str) -> None:
    series: dict[str, list[float]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        raise ArtifactError(f"{path}: cannot read ({err})") from err
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ArtifactError(f"{path}:{i}: malformed JSONL ({err})") from err
        if not isinstance(obj, dict) or obj.get("type") != "sample":
            raise ArtifactError(f"{path}:{i}: not a sample line")
        if not isinstance(obj.get("name"), str) or not all(
            isinstance(obj.get(key), (int, float)) for key in ("index", "value")
        ):
            raise ArtifactError(f"{path}:{i}: sample missing name/index/value")
        series.setdefault(obj["name"], []).append(obj["value"])

    section(f"metrics ({path}: {len(series)} series)")
    for name, values in series.items():
        print(
            f"  {name:44} {len(values):>5} samples  "
            f"first {values[0]:>12.6g}  last {values[-1]:>12.6g}"
        )


# ------------------------------------------------------------- manifest

def check_manifest(doc: object, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: manifest is not an object")
    schema = doc.get("schema", "")
    if schema != "autoncs-run-manifest/5":
        raise ArtifactError(f"{path}: unexpected schema {schema!r}")
    return doc


# Upper edges of the pool's per-dispatch imbalance buckets.
IMBALANCE_BUCKETS = ("<5%", "<10%", "<25%", "<50%", ">=50%")


def report_manifest(path: str, top: int) -> None:
    doc = check_manifest(load_json(path), path)
    section(f"manifest ({path}: schema {doc.get('schema')})")
    print(
        f"  flow {doc.get('flow', '?')}  status {doc.get('status', '?')}  "
        f"seed {doc.get('seed', '?')}  threads_used "
        f"{doc.get('threads_used', '?')}"
    )
    build = doc.get("build", {})
    if isinstance(build, dict) and build:
        supported = build.get("eigen_isas_supported", [])
        print(
            f"  build {build.get('type', '?')}  eigen kernels "
            f"{build.get('eigen_isa', '?')} (host supports "
            f"{', '.join(supported) if supported else '?'})"
        )
    timings = doc.get("timings_ms", {})
    if isinstance(timings, dict) and timings:
        print("  stage wall-clock:")
        for stage, ms in timings.items():
            print(f"    {stage:26} {ms:12.2f} ms")

    pools = doc.get("pool", [])
    if isinstance(pools, list) and pools:
        print("  scheduler utilization:")
        for p in pools:
            wall_ns = p.get("wall_ns", 0)
            frac_text = " ".join(
                f"{ns / wall_ns:.2f}" if wall_ns else "0.00"
                for ns in p.get("busy_ns", [])
            )
            print(
                f"    pool '{p.get('label', '?')}': {p.get('workers', '?')} "
                f"workers x {p.get('pools', '?')} pools, "
                f"{p.get('dispatches', 0)} dispatches "
                f"({p.get('inline_runs', 0)} inline), "
                f"{p.get('parks', 0)} parks"
            )
            spin = p.get("spin_wakes", 0)
            woken = p.get("wakes", 0)
            handoffs = spin + woken
            share = f" ({100.0 * spin / handoffs:.1f}% spinning)" if handoffs else ""
            print(
                f"      hand-offs: {spin} caught spinning / {woken} woken "
                f"from park{share}"
            )
            print(f"      busy fraction per worker: [{frac_text}]")
            imb = p.get("imbalance", [])
            if imb:
                print(
                    "      block imbalance: "
                    + " ".join(
                        f"{label}={count}"
                        for label, count in zip(IMBALANCE_BUCKETS, imb)
                    )
                )

    result = doc.get("result", {})
    routing = result.get("routing", {}) if isinstance(result, dict) else {}
    if isinstance(routing, dict) and routing:
        print("  routing effort:")
        print(
            f"    segments {routing.get('segments_routed', '?')} routed, "
            f"{routing.get('segments_relaxed', '?')} relaxed, "
            f"{routing.get('segments_deferred', '?')} deferred over "
            f"{routing.get('waves', '?')} waves"
        )
        print(
            f"    maze {routing.get('maze_invocations', '?')} searches, "
            f"{routing.get('maze_nodes_expanded', '?')} nodes expanded, "
            f"{routing.get('maze_heap_pushes', '?')} heap pushes, "
            f"{routing.get('maze_window_retries', '?')} window retries, "
            f"{routing.get('maze_meets', '?')} meets"
        )
        print(
            f"    rung oracle {routing.get('oracle_calls', '?')} floods, "
            f"{routing.get('oracle_nodes', '?')} nodes"
        )
        passes = routing.get("reroute_stats", [])
        print(f"    reroute passes executed: {len(passes)}")
        for i, rerouted in enumerate(passes, 1):
            print(
                f"      pass {i}: {rerouted.get('segments_rerouted', '?')} "
                f"segments rerouted, overflow after "
                f"{rerouted.get('overflow_after', '?')}"
            )
        failed = routing.get("failed_wires", [])
        shown = " ".join(str(w) for w in failed[:top])
        more = f" (+{len(failed) - top} more)" if len(failed) > top else ""
        listed = f" [{shown}{more}]" if failed else ""
        print(f"    failed wires: {len(failed)}{listed}")

    memory = doc.get("memory", {})
    if isinstance(memory, dict) and memory:
        print("  memory:")
        print(f"    peak RSS {fmt_bytes(float(memory.get('peak_rss_bytes', 0)))}")
        for s in memory.get("stages", []):
            print(
                f"    stage {s.get('stage', '?'):14} rss "
                f"{fmt_bytes(float(s.get('current_rss_bytes', 0)))}  peak "
                f"{fmt_bytes(float(s.get('peak_rss_bytes', 0)))}"
            )
        structures = sorted(
            memory.get("structures", []),
            key=lambda s: -float(s.get("bytes", 0)),
        )
        for s in structures[:top]:
            print(
                f"    struct {s.get('name', '?'):32} "
                f"{fmt_bytes(float(s.get('bytes', 0)))}"
            )

    if doc.get("status") == "error":
        print(
            f"  ERROR manifest: category {doc.get('error_category')!r} "
            f"code {doc.get('error_code')!r} stage {doc.get('error_stage')!r}"
        )
        if doc.get("flight_path"):
            print(f"  flight recorder: {doc['flight_path']}")


# --------------------------------------------------------------- flight

def report_flight(path: str, top: int) -> None:
    doc = load_json(path)
    if not isinstance(doc, dict) or doc.get("schema") != "autoncs-flight/1":
        raise ArtifactError(f"{path}: not an autoncs-flight/1 dump")
    events = doc.get("events")
    if not isinstance(events, list):
        raise ArtifactError(f"{path}: missing 'events' array")
    section(
        f"flight recorder ({path}: {doc.get('recorded', '?')} recorded, "
        f"ring capacity {doc.get('capacity', '?')}, {len(events)} retained)"
    )
    names = {"span_begin": "+", "span_end": "-", "log": "#"}
    for e in events[-top:]:
        kind = e.get("type", "?")
        mark = names.get(kind, "?")
        text = e.get("name", e.get("line", ""))
        print(f"  {mark} t={e.get('t_us', '?'):>12} tid={e.get('tid', '?'):>3} {text}")


# -------------------------------------------------------------- history

def report_history(directory: str) -> None:
    if not os.path.isdir(directory):
        raise ArtifactError(f"{directory}: not a directory")
    rows = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            doc = load_json(path)
        except ArtifactError:
            continue  # the history dir may hold non-manifest JSON
        if not isinstance(doc, dict) or not str(doc.get("schema", "")).startswith(
            "autoncs-run-manifest/"
        ):
            continue
        total = doc.get("timings_ms", {}).get("total")
        peak = doc.get("memory", {}).get("peak_rss_bytes")
        rows.append((name, doc.get("status", "?"), total, peak))
    section(f"history ({directory}: {len(rows)} manifests)")
    for name, status, total, peak in rows:
        total_text = f"{total:12.2f} ms" if isinstance(total, (int, float)) else "     (n/a)"
        peak_text = fmt_bytes(float(peak)) if isinstance(peak, (int, float)) else "(n/a)"
        print(f"  {name:44} {status:9} total {total_text}  peak {peak_text}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace-event JSON")
    parser.add_argument("--metrics", help="metrics JSONL")
    parser.add_argument("--manifest", help="run manifest JSON")
    parser.add_argument("--flight", help="flight-recorder dump JSON")
    parser.add_argument("--history", help="directory of historical manifests")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="per-span self-time deltas from trace A to B")
    parser.add_argument("--top", type=int, default=20, help="rows per section")
    args = parser.parse_args()

    if not any([args.trace, args.metrics, args.manifest, args.flight,
                args.history, args.diff]):
        parser.error("pass at least one artifact")

    try:
        if args.manifest:
            report_manifest(args.manifest, args.top)
        if args.trace:
            report_trace(args.trace, args.top)
        if args.metrics:
            report_metrics(args.metrics)
        if args.flight:
            report_flight(args.flight, args.top)
        if args.history:
            report_history(args.history)
        if args.diff:
            report_diff(args.diff[0], args.diff[1], args.top)
    except ArtifactError as err:
        print(f"PERF REPORT FAIL: {err}", file=sys.stderr)
        return 1
    print("\nperf report OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
