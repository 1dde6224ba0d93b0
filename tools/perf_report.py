#!/usr/bin/env python3
"""Hotspot / utilization / memory report over the run's telemetry artifacts.

Merges any subset of the artifacts one flow run produces —

  * ``--trace trace.json`` — Chrome trace-event JSON ("ph":"X" complete
    events). Reports per-span-name total and SELF time (total minus the
    time spent in directly nested spans on the same thread), call counts,
    and per-thread busy time.
  * ``--metrics metrics.jsonl`` — one JSON object per line (counter /
    gauge / histogram / sample). Reports the counters and gauges, the
    heaviest histograms, and the series sizes.
  * ``--manifest run.manifest.json`` — run manifest (schema
    autoncs-run-manifest/2 or /3). Reports stage wall-clock, scheduler
    utilization per pool label (per-worker busy fractions, parks, hand-offs
    caught spinning vs woken from park, block imbalance histogram), and the memory section (peak RSS,
    per-stage RSS samples, instrumented structure footprints).
  * ``--flight flight.json`` — crash flight-recorder dump (schema
    autoncs-flight/1). Reports ring occupancy and the tail of the event
    log.
  * ``--history DIR`` — a directory of historical run manifests; prints a
    per-manifest trend line of total wall-clock and peak RSS.

Exits 1 when any artifact passed on the command line is missing,
unparsable, or fails its schema sanity check — CI uses this as the
telemetry-artifact smoke gate. Stdlib only.

Usage: perf_report.py [--trace F] [--metrics F] [--manifest F]
                      [--flight F] [--history DIR] [--top N]
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

def report_trace(path: str, top: int) -> None:
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

    section(f"trace hotspots ({path}: {len(events)} spans)")
    if not events:
        print("  (empty trace)")
        return

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


# -------------------------------------------------------------- metrics

def report_metrics(path: str, top: int) -> None:
    counters: list[tuple[str, float]] = []
    gauges: list[tuple[str, float]] = []
    histograms: list[dict] = []
    samples: dict[str, int] = {}
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
        if not isinstance(obj, dict) or "type" not in obj or "name" not in obj:
            raise ArtifactError(f"{path}:{i}: metric missing type/name")
        kind = obj["type"]
        if kind == "counter":
            counters.append((obj["name"], obj.get("value", 0)))
        elif kind == "gauge":
            gauges.append((obj["name"], obj.get("value", 0)))
        elif kind == "histogram":
            histograms.append(obj)
        elif kind == "sample":
            samples[obj["name"]] = samples.get(obj["name"], 0) + 1
        else:
            raise ArtifactError(f"{path}:{i}: unknown metric type {kind!r}")

    section(
        f"metrics ({path}: {len(counters)} counters, {len(gauges)} gauges, "
        f"{len(histograms)} histograms, {len(samples)} series)"
    )
    for name, value in counters:
        print(f"  counter {name:44} {value:>14}")
    for name, value in gauges:
        print(f"  gauge   {name:44} {value:>14.6g}")
    for h in sorted(histograms, key=lambda h: -float(h.get("sum", 0)))[:top]:
        print(
            f"  hist    {h['name']:44} count {h.get('count', 0):>7} "
            f"sum {h.get('sum', 0.0):>12.4g} mean {h.get('mean', 0.0):>10.4g}"
        )
    for name, count in sorted(samples.items()):
        print(f"  series  {name:44} {count:>7} samples")


# ------------------------------------------------------------- manifest

def check_manifest(doc: object, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: manifest is not an object")
    schema = doc.get("schema", "")
    if not str(schema).startswith("autoncs-run-manifest/"):
        raise ArtifactError(f"{path}: unexpected schema {schema!r}")
    return doc


def report_manifest(path: str, top: int) -> None:
    doc = check_manifest(load_json(path), path)
    section(f"manifest ({path}: schema {doc.get('schema')})")
    print(
        f"  flow {doc.get('flow', '?')}  status {doc.get('status', '?')}  "
        f"seed {doc.get('seed', '?')}  threads_used "
        f"{doc.get('threads_used', '?')}"
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
            fracs = p.get("busy_fraction", [])
            frac_text = " ".join(f"{f:.2f}" for f in fracs)
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
            imb = p.get("imbalance", {})
            if imb:
                print(
                    "      block imbalance: "
                    + " ".join(f"{k}={v}" for k, v in imb.items())
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
    parser.add_argument("--top", type=int, default=20, help="rows per section")
    args = parser.parse_args()

    if not any([args.trace, args.metrics, args.manifest, args.flight,
                args.history]):
        parser.error("pass at least one artifact")

    try:
        if args.manifest:
            report_manifest(args.manifest, args.top)
        if args.trace:
            report_trace(args.trace, args.top)
        if args.metrics:
            report_metrics(args.metrics, args.top)
        if args.flight:
            report_flight(args.flight, args.top)
        if args.history:
            report_history(args.history)
    except ArtifactError as err:
        print(f"PERF REPORT FAIL: {err}", file=sys.stderr)
        return 1
    print("\nperf report OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
