#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench run against a committed baseline.

Compares a freshly produced bench JSON (e.g. from
`bench_ablation_parallel --json fresh.json`) against the committed
`BENCH_*.json` baseline. The gate reasons about two kinds of columns:

  * LOGICAL columns (`vpt_tests`, `bfs_expansions`, `logical_cost`,
    `verdict_cache_hits`, `dirty_nodes`, `rounds`) are machine-independent
    work-unit counts — pure functions of
    (mode, nodes, tau, degree, seed). They must match the baseline EXACTLY; any
    drift means the algorithm changed behaviour, and the gate fails. A
    baseline row missing from the fresh run is likewise a failure (silently
    dropping a configuration is how regressions hide). A logical column
    absent from the baseline (recorded before the cost model) is skipped
    with a note, so old baselines keep working.
  * WALL-CLOCK (`seconds`) is machine- and load-dependent, so it is ALWAYS
    advisory: ratios above --tolerance are reported loudly but never change
    the exit code. Cross-machine performance conclusions belong to the
    logical columns.

With --fleet, both inputs are `tgcover fleet` JSONL sinks instead of bench
JSON: rows are keyed by the full grid cell (model, nodes, degree, tau,
loss, seed), and the gated columns additionally include `status`,
`survivors`, and `schedule_digest` — all machine-independent, so two sinks
from the same build and grid must agree exactly. `wall_ms` stays advisory.

With --profile, both inputs are `--profile-out` JSONL sinks: rows are the
phase_summary lines keyed by phase, `items` (work units processed per
phase) and the header's `rounds` gate exactly, and `tasks` (chunk count)
gates only when both sinks report the same worker count — the serial
inline path records one task per fork while pooled execution records one
per chunk. Per-phase busy time folds into the advisory `seconds` column.

With --node, both inputs are `--node-telemetry-out` JSONL sinks (either
the per-run stream from `distributed`/`repair` or the shared fleet
telemetry sink, whose rows carry a run tag): rows are the node_summary
lines keyed by (run, node), and every per-node message counter — sent,
received, lost, dropped, retransmits, both word totals, backlog peak,
rounds active — gates exactly. The writer emits a row for every node,
silent ones included, so a node missing from the fresh run is a failure,
not an omission. Energy is derived (counters × the configured model) and
is not gated; there is no wall-clock column.

With --quality, both inputs are `--quality-out` JSONL sinks (either the
per-run stream from `schedule`/`distributed`/`repair` or the shared fleet
quality sink, whose summary rows carry a run tag): rows are the
quality_summary lines keyed by run, and every rollup column — sampled
round count, coverage fractions, worst hole diameter, bound margin and
violation count (when the Proposition 1 bound is finite), component and
awake counts, certifiable τ, redundancy — gates exactly at the writer's
fixed six-decimal precision. This is how CI proves a 2-thread run audits
to byte-identical quality as the serial one. No wall-clock column.

Stdlib only. Exit codes: 0 ok, 1 logical regression, 2 usage/IO error.
With --advisory, even logical regressions are reported but the exit code
stays 0 (used on PR builds; pushes to main hard-fail).
"""

import argparse
import json
import sys

LOGICAL_FIELDS = (
    "vpt_tests",
    "bfs_expansions",
    "logical_cost",
    "verdict_cache_hits",
    "dirty_nodes",
    "rounds",
)

FLEET_FIELDS = LOGICAL_FIELDS + ("status", "survivors", "schedule_digest")

PROFILE_FIELDS = ("items",)

NODE_FIELDS = (
    "sent",
    "received",
    "lost",
    "dropped",
    "retransmits",
    "sent_words",
    "recv_words",
    "backlog_peak",
    "rounds_active",
)

# quality_summary rollups: all %.6f-formatted or integral, so string/number
# equality is exact. bound_margin / violations are absent when the bound is
# infinite (γ > 2) — None == None keeps the comparison meaningful.
QUALITY_FIELDS = (
    "rounds_sampled",
    "min_coverage_fraction",
    "final_coverage_fraction",
    "max_hole_diameter",
    "bound_margin",
    "violations",
    "max_components",
    "final_certifiable_tau",
    "final_redundancy",
    "final_awake",
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


# The JSONL sink kinds, one row each: which lines become result rows, the
# advisory seconds of a row, the header line the sink must carry (if any),
# and the message for a sink without it (or without any row).
STREAMS = {
    "fleet": {
        # The manifest header and any truncated/partial lines are skipped.
        "is_row": lambda obj: "run" in obj,
        "seconds": lambda obj: float(obj.get("wall_ms", 0.0)) / 1000.0,
    },
    "profile": {
        # Per-phase busy time folds into the advisory seconds; the header
        # contributes the worker count and the exactly-gated round count.
        "is_row": lambda obj: obj.get("type") == "phase_summary",
        "seconds": lambda obj: float(obj.get("busy_ns", 0)) / 1e9,
        "header": "profile_header",
        "missing": "has no profile_header line "
                   "(produce one with --profile-out)",
    },
    "node": {
        # The single-run stream carries no run tags (key half defaults to 0);
        # the shared fleet sink tags every row with its run id. No wall-clock
        # column: the advisory ratio is always a clean 1.0.
        "is_row": lambda obj: obj.get("type") == "node_summary",
        "seconds": lambda obj: 0.0,
        "missing": "has no node_summary lines "
                   "(produce one with --node-telemetry-out)",
    },
    "quality": {
        # One untagged summary per run stream (key defaults to run 0); the
        # shared fleet quality sink tags each summary with its run id.
        "is_row": lambda obj: obj.get("type") == "quality_summary",
        "seconds": lambda obj: 0.0,
        "missing": "has no quality_summary lines "
                   "(produce one with --quality-out)",
    },
}


def load_stream(path, kind):
    """Reads a JSONL sink of `kind` (a STREAMS key) into the bench-JSON shape
    the gate walks. Blank, unparseable and non-object lines are skipped (a
    killed run truncates its final line)."""
    spec = STREAMS[kind]
    header = None
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(obj, dict):
                    continue
                if "header" in spec and obj.get("type") == spec["header"]:
                    header = obj
                elif spec["is_row"](obj):
                    obj["seconds"] = spec["seconds"](obj)
                    rows.append(obj)
    except OSError as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    found = header is not None if "header" in spec else bool(rows)
    if "missing" in spec and not found:
        print(f"bench_gate: {path} {spec['missing']}", file=sys.stderr)
        sys.exit(2)
    out = {"bench": kind, "results": rows}
    if header is not None:
        for key in ("workers", "rounds", "hardware_concurrency"):
            out[key] = header.get(key)
    return out


def quality_row_key(row):
    return (row.get("run", 0),)


def fmt_quality_key(key):
    return f"run {key[0]}"


def node_row_key(row):
    return (row.get("run", 0), row.get("node"))


def fmt_node_key(key):
    return f"run {key[0]} node {key[1]}"


def profile_row_key(row):
    return (row.get("phase"),)


def fmt_profile_key(key):
    return f"phase {key[0]}"


def row_key(row):
    # Rows recorded before the multi-round DCC section carry no mode tag;
    # they are the single-round VPT sweep.
    return (row.get("mode", "sweep"), row.get("nodes"), row.get("threads"))


def fmt_key(key):
    return f"{key[0]} nodes={key[1]} threads={key[2]}"


def fleet_row_key(row):
    return (
        row.get("model"),
        row.get("nodes"),
        row.get("degree"),
        row.get("tau"),
        row.get("loss"),
        row.get("seed"),
    )


def fmt_fleet_key(key):
    model, nodes, degree, tau, loss, seed = key
    return (f"{model} n={nodes} deg={degree} tau={tau} "
            f"loss={loss} seed={seed}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    ap.add_argument("--fresh", required=True, help="bench JSON from this build")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="advisory seconds ratio fresh/baseline to report (default 3.0)",
    )
    ap.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions but always exit 0",
    )
    ap.add_argument(
        "--fleet",
        action="store_true",
        help="inputs are tgcover fleet JSONL sinks, keyed by grid cell",
    )
    ap.add_argument(
        "--profile",
        action="store_true",
        help="inputs are --profile-out JSONL sinks, keyed by phase",
    )
    ap.add_argument(
        "--node",
        action="store_true",
        help="inputs are --node-telemetry-out JSONL sinks, keyed by "
             "(run, node)",
    )
    ap.add_argument(
        "--quality",
        action="store_true",
        help="inputs are --quality-out JSONL sinks, keyed by run",
    )
    args = ap.parse_args()
    if sum((args.fleet, args.profile, args.node, args.quality)) > 1:
        print("bench_gate: --fleet, --profile, --node, and --quality are "
              "mutually exclusive", file=sys.stderr)
        sys.exit(2)

    pre_failures = []
    if args.quality:
        baseline = load_stream(args.baseline, "quality")
        fresh = load_stream(args.fresh, "quality")
        key_of, fmt, gated = quality_row_key, fmt_quality_key, QUALITY_FIELDS
    elif args.node:
        baseline = load_stream(args.baseline, "node")
        fresh = load_stream(args.fresh, "node")
        key_of, fmt, gated = node_row_key, fmt_node_key, NODE_FIELDS
    elif args.fleet:
        baseline = load_stream(args.baseline, "fleet")
        fresh = load_stream(args.fresh, "fleet")
        key_of, fmt, gated = fleet_row_key, fmt_fleet_key, FLEET_FIELDS
    elif args.profile:
        baseline = load_stream(args.baseline, "profile")
        fresh = load_stream(args.fresh, "profile")
        key_of, fmt, gated = profile_row_key, fmt_profile_key, PROFILE_FIELDS
        if baseline.get("rounds") != fresh.get("rounds"):
            pre_failures.append(
                f"rounds {fresh.get('rounds')} != baseline "
                f"{baseline.get('rounds')} (machine-independent — this is a "
                f"behaviour change, not noise)")
        if baseline.get("workers") == fresh.get("workers"):
            gated = gated + ("tasks",)
        else:
            print("bench_gate: worker counts differ "
                  f"(baseline {baseline.get('workers')}, fresh "
                  f"{fresh.get('workers')}) — per-phase task counts follow "
                  "chunk scheduling and are not gated; items still are")
    else:
        baseline = load(args.baseline)
        fresh = load(args.fresh)
        key_of, fmt, gated = row_key, fmt_key, LOGICAL_FIELDS

    if baseline.get("bench") != fresh.get("bench"):
        print(
            f"bench_gate: bench name mismatch: baseline "
            f"{baseline.get('bench')!r} vs fresh {fresh.get('bench')!r}",
            file=sys.stderr,
        )
        sys.exit(2)

    base_rows = {key_of(r): r for r in baseline.get("results", [])}
    fresh_rows = {key_of(r): r for r in fresh.get("results", [])}
    if not base_rows:
        print("bench_gate: baseline has no result rows", file=sys.stderr)
        sys.exit(2)

    failures = list(pre_failures)
    advisories = []
    skipped_fields = set()
    # Speedup columns recorded on a single-core host never exercised real
    # parallelism — say so instead of letting a flat baseline read as "no
    # speedup regression".
    base_single_core = baseline.get("hardware_concurrency") == 1
    print(f"bench_gate: {baseline.get('bench')} "
          f"({len(base_rows)} baseline rows; logical columns gate, "
          f"seconds advisory at {args.tolerance}x)")
    print(f"{'config':<40} {'cost base':>10} {'cost fresh':>10} "
          f"{'base s':>9} {'fresh s':>9} {'ratio':>7}  verdict")
    for key, base in sorted(base_rows.items()):
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            failures.append(f"{fmt(key)}: missing from fresh run")
            print(f"{fmt(key):<40} {'-':>10} {'-':>10} {'-':>9} {'-':>9} "
                  f"{'-':>7}  MISSING")
            continue
        verdicts = []
        for field in gated:
            if field not in base:
                skipped_fields.add(field)
                continue
            if fresh_row.get(field) != base.get(field):
                verdicts.append(
                    f"{field} {fresh_row.get(field)} != baseline "
                    f"{base.get(field)} (machine-independent — this is a "
                    f"behaviour change, not noise)"
                )
        base_s = float(base.get("seconds", 0.0))
        fresh_s = float(fresh_row.get("seconds", 0.0))
        if base_s > 0:
            ratio = fresh_s / base_s
        else:
            # Both zero (an idle profile phase) is a clean 1.0, not "inf
            # slower"; work appearing where the baseline had none is inf.
            ratio = 1.0 if fresh_s == 0 else float("inf")
        slow = ratio > args.tolerance
        if slow:
            advisories.append(
                f"{fmt(key)}: {ratio:.2f}x slower than baseline "
                f"(advisory: wall-clock never gates)"
            )
        status = ("FAIL: " + "; ".join(verdicts)) if verdicts else (
            "ok (slow, advisory)" if slow else "ok")
        if (base_single_core and not verdicts
                and "speedup_vs_1t" in base and base.get("threads", 1) > 1):
            status += " [speedup unverifiable: baseline captured on 1 core]"
        print(f"{fmt(key):<40} {base.get('logical_cost', '-'):>10} "
              f"{fresh_row.get('logical_cost', '-'):>10} "
              f"{base_s:>9.4f} {fresh_s:>9.4f} {ratio:>6.2f}x  {status}")
        for v in verdicts:
            failures.append(f"{fmt(key)}: {v}")

    extra = sorted(set(fresh_rows) - set(base_rows))
    for key in extra:
        print(f"{fmt(key):<40} (new row, not in baseline — ignored)")
    if skipped_fields:
        print("bench_gate: baseline predates logical column(s) "
              f"{sorted(skipped_fields)} — not gated this run")

    for a in advisories:
        print(f"bench_gate: advisory: {a}", file=sys.stderr)
    if failures:
        print(f"\nbench_gate: {len(failures)} logical regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        if args.advisory:
            print("bench_gate: advisory mode — not failing the build",
                  file=sys.stderr)
            return 0
        return 1
    print("bench_gate: no logical regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
