#!/usr/bin/env python3
"""Reduce a perfbench trace file to per-layer self times and metrics.

    python3 perfbench/spans.py <trace file>

The trace file (written by `perfbench --trace-out`) holds one header line
(`H`, the run envelope), span lines (`S cell name id parent req start end`,
times in ns) and counter lines (`C cell name value`). A cell is a scheme
name, or `all` for run-wide counters.

A span's self time is its duration minus the part of its interval that its
children cover; children may overlap each other and may stick out of the
parent, and each covered instant is subtracted once.
"""

import json
import sys
from collections import defaultdict

SCHEMES = ("qsense", "qsbr", "hp", "he")

# Per-scheme metrics: (name prefix, unit). The full name is `<prefix>.<scheme>`.
PER_SCHEME = (
    ("smr.protect_ns", "ns"),
    ("smr.bracket_ns", "ns"),
    ("smr.fences_per_op", "fences/op"),
    ("lockfree_ds.contains_ns", "ns"),
    ("smr.retire_ns", "ns"),
    ("smr.scans_per_kop", "scans/kop"),
    ("smr.scan_walk_ratio", "ratio"),
    ("smr.flush_ns", "ns"),
    ("smr.retired_per_kop", "nodes/kop"),
    ("lockfree_ds.insert_ns", "ns"),
    ("lockfree_ds.remove_ns", "ns"),
    ("smr.freed_ratio", "ratio"),
    ("smr.retire_free_delay_p99_us", "us"),
    ("lease.checkout_ns", "ns"),
    ("lease.checkin_ns", "ns"),
    ("lease.wait_ratio", "ratio"),
    ("registry.shard_walks_per_scan", "shards/scan"),
    ("registry.shard_skip_ratio", "ratio"),
    ("smr.register_ns", "ns"),
    ("smr.quiescent_per_kop", "states/kop"),
)

# Run-wide metrics: (name, unit).
RUN_WIDE = (
    ("alloc.node_ns", "ns"),
    ("qsense.fallback_switches", "count"),
    ("qsense.fast_path_switches", "count"),
    ("gen.lag_p50_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("session.self_ns", "ns"),
    ("setup.self_ns", "ns"),
    ("trace.overhead_pct", "%"),
)


def metric_names():
    """Every per-layer metric name with its unit, in reporting order."""
    names = [(f"{prefix}.{s}", unit) for prefix, unit in PER_SCHEME for s in SCHEMES]
    return names + list(RUN_WIDE)


def self_time(start, end, children):
    """Nanoseconds of [start, end] that no child interval covers."""
    covered = 0
    run_start = run_end = None
    for cs, ce in sorted((max(s, start), min(e, end)) for s, e in children):
        if ce <= cs:
            continue
        if run_end is None or cs > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = cs, ce
        else:
            run_end = max(run_end, ce)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def parse(lines):
    """Splits a trace into (header, spans by cell, counters by cell)."""
    header = {}
    spans = defaultdict(list)
    counters = defaultdict(dict)
    for line in lines:
        parts = line.rstrip("\n").split("\t")
        if parts[0] == "H":
            header = json.loads(parts[1])
        elif parts[0] == "S":
            cell, name = parts[1], parts[2]
            span_id, parent, req, start, end = map(int, parts[3:8])
            spans[cell].append((name, span_id, parent, req, start, end))
        elif parts[0] == "C":
            counters[parts[1]][parts[2]] = float(parts[3])
    return header, spans, counters


def self_times(spans):
    """{(cell, name): [count, total duration, total self time]} in ns."""
    out = defaultdict(lambda: [0, 0, 0])
    for cell, cell_spans in spans.items():
        children = defaultdict(list)
        for _, _, parent, _, start, end in cell_spans:
            if parent:
                children[parent].append((start, end))
        for name, span_id, _, _, start, end in cell_spans:
            acc = out[(cell, name)]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += self_time(start, end, children.get(span_id, ()))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def reduce(header, spans, counters):
    """Per-layer metrics {name: (value, unit)} plus report lines."""
    selfs = self_times(spans)

    def mean_self(cells, name):
        count = sum(selfs[(c, name)][0] for c in cells if (c, name) in selfs)
        total = sum(selfs[(c, name)][2] for c in cells if (c, name) in selfs)
        return _ratio(total, count)

    values = {}
    for s in SCHEMES:
        c = counters.get(s, {})
        ops = c.get("d.ops", 0)
        kops = ops / 1e3
        walks, wholesale, skips = (c.get(k, 0) for k in ("d.scan_walks", "d.scan_wholesale", "d.scan_skips"))
        shard_walks, shard_skips = c.get("d.shard_walks", 0), c.get("d.shard_skips", 0)
        values.update({
            f"smr.protect_ns.{s}": c.get("iso.protect_ns", 0),
            f"smr.bracket_ns.{s}": c.get("iso.bracket_ns", 0),
            f"smr.fences_per_op.{s}": _ratio(c.get("d.traversal_fences", 0), ops),
            f"lockfree_ds.contains_ns.{s}": mean_self([s], "lockfree_ds.contains"),
            f"smr.retire_ns.{s}": c.get("iso.retire_ns", 0),
            f"smr.scans_per_kop.{s}": _ratio(c.get("d.scans", 0), kops),
            f"smr.scan_walk_ratio.{s}": _ratio(walks, walks + wholesale + skips),
            f"smr.flush_ns.{s}": mean_self([s], "smr.flush"),
            f"smr.retired_per_kop.{s}": _ratio(c.get("d.retired", 0), kops),
            f"lockfree_ds.insert_ns.{s}": mean_self([s], "lockfree_ds.insert"),
            f"lockfree_ds.remove_ns.{s}": mean_self([s], "lockfree_ds.remove"),
            f"smr.freed_ratio.{s}": _ratio(c.get("end.freed", 0), c.get("end.retired", 0)),
            f"smr.retire_free_delay_p99_us.{s}": c.get("telemetry.delay_p99_us", 0),
            f"lease.checkout_ns.{s}": mean_self([s], "lease.checkout"),
            f"lease.checkin_ns.{s}": mean_self([s], "lease.checkin"),
            f"lease.wait_ratio.{s}": _ratio(c.get("lease.waits", 0), c.get("lease.checkouts", 0)),
            f"registry.shard_walks_per_scan.{s}": _ratio(shard_walks, walks + wholesale + skips),
            f"registry.shard_skip_ratio.{s}": _ratio(shard_skips, shard_walks + shard_skips),
            f"smr.register_ns.{s}": mean_self([s], "smr.register"),
            f"smr.quiescent_per_kop.{s}": _ratio(c.get("d.quiescent_states", 0), kops),
        })

    run = counters.get("all", {})
    qs = counters.get("qsense", {})
    cells = qs.get("rounds", 1)
    overheads = []
    for s in SCHEMES:
        c = counters.get(s, {})
        if run.get("open_loop"):
            # Open loop: throughput is the offered load, so tracing shows
            # as longer sessions instead.
            plain = _ratio(c.get("untraced.busy_ns", 0), c.get("untraced.ops", 0))
            traced = _ratio(c.get("traced.busy_ns", 0), c.get("traced.ops", 0))
            overheads.append(100.0 * (_ratio(traced, plain) - 1.0) if plain else 0.0)
        else:
            plain = _ratio(c.get("untraced.ops", 0), c.get("untraced.ns", 0))
            traced = _ratio(c.get("traced.ops", 0), c.get("traced.ns", 0))
            overheads.append(100.0 * (1.0 - _ratio(traced, plain)) if plain else 0.0)
    values.update({
        "alloc.node_ns": run.get("alloc.node_ns", 0),
        "qsense.fallback_switches": _ratio(qs.get("end.fallback_switches", 0), cells),
        "qsense.fast_path_switches": _ratio(qs.get("end.fast_path_switches", 0), cells),
        "gen.lag_p50_us": run.get("gen.lag_p50_us", 0),
        "gen.lag_p99_us": run.get("gen.lag_p99_us", 0),
        "session.self_ns": mean_self(SCHEMES, "session"),
        "setup.self_ns": mean_self(SCHEMES, "setup"),
        "trace.overhead_pct": sum(overheads) / len(overheads),
    })
    metrics = {name: (float(values[name]), unit) for name, unit in metric_names()}

    report = []
    for (cell, name), (count, dur, own) in sorted(selfs.items()):
        report.append(
            f"self cell={cell} span={name} count={count} mean_ns={dur / count:.1f} self_ns={own / count:.1f}"
        )
    hp = counters.get("hp", {})
    predicted = values["smr.protect_ns.hp"] * values["smr.fences_per_op.hp"]
    measured = _ratio(hp.get("untraced.busy_ns", 0), hp.get("untraced.ops", 0))
    report.append(
        f"reconcile workload={header.get('workload', '?')} scheme=hp "
        f"protect_ns={values['smr.protect_ns.hp']:.2f} fences_per_op={values['smr.fences_per_op.hp']:.2f} "
        f"predicted_ns_per_op={predicted:.1f} measured_ns_per_op={measured:.1f} "
        f"share={100.0 * _ratio(predicted, measured):.1f}%"
    )
    return metrics, report


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        metrics, report = reduce(*parse(f))
    print("\n".join(report))
    print(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
