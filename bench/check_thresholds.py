#!/usr/bin/env python3
"""Gate a BENCH_*.json report against bench/thresholds.json.

Usage: check_thresholds.py <report.json> [thresholds.json] [--append-history]

The thresholds file may hold one section per report name (keyed by the
report's "name" field, e.g. "fault" for BENCH_fault.json); reports without
their own section use the top-level "min" block.  Every key under the
selected "min" must be present in the report (top level) and >= the
threshold; every key under "max" must be present and <= the threshold
(used by the "lint" section to pin graph_rules_findings and
stale_suppressions at zero and to ratchet src_code_lines).  Exits non-zero
listing all violations.

A section may also carry a "min_if" list of conditional gates:

    {"key": "solve_thread_speedup_n4096", "floor": 2.0,
     "requires": "hw_threads", "at_least": 4}

enforces report[key] >= floor only when report[requires] >= at_least —
machine-dependent floors (threaded speedups) skip gracefully on starved
runners instead of failing on hardware the gate cannot measure.

--append-history appends one JSON line per run (report name, UTC timestamp,
every numeric top-level field) to bench/history.jsonl, building the
perf-trajectory record the ROADMAP calls for.

--render-history regenerates bench/HISTORY.md from bench/history.jsonl: one
markdown table per report name, rows in run order, headline columns first
(capped at 8 per table so the file stays reviewable).  The flag works
standalone — `check_thresholds.py --render-history` with no report argument
only renders.
"""
import datetime
import json
import os
import sys

HISTORY_PATH = os.path.join(os.path.dirname(__file__), "history.jsonl")
HISTORY_MD_PATH = os.path.join(os.path.dirname(__file__), "HISTORY.md")

# Columns surfaced first in HISTORY.md, per report name; anything else fills
# the remaining width in first-seen order.
HEADLINE_KEYS = {
    "micro": [
        "sim_events_per_s",
        "sa_moves_per_s_incremental",
        "sa_speedup_vs_full",
        "spmv_simd_speedup",
        "sa_delta_simd_speedup",
        "solve_thread_speedup_n4096",
        "wall_time_s",
    ],
    "fault": [
        "ft_delivery_ratio_5pct",
        "xy_delivery_gap_5pct",
        "fgs_min_psnr_db_30loss",
        "bitwise_reproducible",
        "slo_fraction_burst",
        "worst_window_availability",
        "crew_queue_max_depth",
        "wall_time_s",
    ],
    "explore_parallel": [
        "island_convergence_speedup",
        "island_thread_invariant",
        "island_resume_identity",
        "sweep32_cluster_wins",
        "island_k4_energy_j",
        "cache_hits",
        "deterministic",
        "wall_time_s",
    ],
    "serve": [
        "serve_concurrent_sessions",
        "serve_events_per_s",
        "serve_event_p99_us",
        "serve_thread_invariant",
        "serve_bitwise_reproducible",
        "wall_time_s",
    ],
    "lint": [
        "src_code_lines",
        "files",
        "files_per_s",
        "graph_build_ms",
        "total_findings",
        "graph_rules_findings",
        "stale_suppressions",
        "suppressed",
    ],
}
MAX_COLUMNS = 8


def fmt(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:.4g}"
    return str(value)


def render_history() -> None:
    if not os.path.exists(HISTORY_PATH):
        print(f"history: {HISTORY_PATH} does not exist; nothing to render")
        return
    rows = []
    with open(HISTORY_PATH) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))

    groups: dict = {}  # name -> list of rows, insertion-ordered
    for row in rows:
        groups.setdefault(row.get("name", "?"), []).append(row)

    out = [
        "# Bench history",
        "",
        "Perf trajectory across CI runs, one table per bench report.",
        "Generated from `bench/history.jsonl` by",
        "`check_thresholds.py --render-history` — do not edit by hand.",
        "",
    ]
    for name, group in groups.items():
        keys = list(HEADLINE_KEYS.get(name, []))
        for row in group:
            for key in row:
                if key in ("name", "timestamp") or key in keys:
                    continue
                if isinstance(row[key], (int, float)):
                    keys.append(key)
        dropped = len(keys) - MAX_COLUMNS
        keys = keys[:MAX_COLUMNS]
        out.append(f"## {name}")
        out.append("")
        out.append("| timestamp | " + " | ".join(keys) + " |")
        out.append("|---" * (len(keys) + 1) + "|")
        for row in group:
            cells = [fmt(row[k]) if k in row else "" for k in keys]
            out.append(
                "| " + row.get("timestamp", "?") + " | "
                + " | ".join(cells) + " |")
        if dropped > 0:
            out.append("")
            out.append(
                f"({dropped} more field(s) recorded in history.jsonl "
                "but not shown)")
        out.append("")
    with open(HISTORY_MD_PATH, "w") as f:
        f.write("\n".join(out))
    print(
        f"history: rendered {len(rows)} run(s), {len(groups)} report(s) "
        f"to {HISTORY_MD_PATH}")


def append_history(report: dict) -> None:
    line = {
        "name": report.get("name"),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    for key, value in report.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            line[key] = value
    with open(HISTORY_PATH, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"history: appended {line['name']} run to {HISTORY_PATH}")


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    flags = {a for a in sys.argv[1:] if a.startswith("--")}
    unknown = flags - {"--append-history", "--render-history"}
    if unknown:
        print(f"unknown flags: {' '.join(sorted(unknown))}\n{__doc__}")
        return 2
    if not args:
        if "--render-history" in flags:
            render_history()
            return 0
        print(__doc__)
        return 2
    report_path = args[0]
    thresholds_path = args[1] if len(args) > 1 else "bench/thresholds.json"
    with open(report_path) as f:
        report = json.load(f)
    with open(thresholds_path) as f:
        thresholds = json.load(f)

    section = thresholds.get(report.get("name"), thresholds)
    if not isinstance(section, dict) or not (
        "min" in section or "max" in section or "min_if" in section
    ):
        section = thresholds

    failures = []
    for key, floor in section.get("min", {}).items():
        value = report.get(key)
        if value is None:
            failures.append(f"{key}: missing from {report_path}")
        elif value < floor:
            failures.append(f"{key}: {value:.6g} < required {floor:.6g}")
        else:
            print(f"ok  {key}: {value:.6g} >= {floor:.6g}")
    for key, ceiling in section.get("max", {}).items():
        value = report.get(key)
        if value is None:
            failures.append(f"{key}: missing from {report_path}")
        elif value > ceiling:
            failures.append(f"{key}: {value:.6g} > allowed {ceiling:.6g}")
        else:
            print(f"ok  {key}: {value:.6g} <= {ceiling:.6g}")
    for gate in section.get("min_if", []):
        key, floor = gate["key"], gate["floor"]
        requires, at_least = gate["requires"], gate["at_least"]
        available = report.get(requires)
        if available is None or available < at_least:
            print(
                f"skip {key}: {requires}={available} < {at_least} "
                "(gate not applicable on this machine)"
            )
            continue
        value = report.get(key)
        if value is None:
            failures.append(f"{key}: missing from {report_path}")
        elif value < floor:
            failures.append(
                f"{key}: {value:.6g} < required {floor:.6g} "
                f"({requires}={available:.6g})"
            )
        else:
            print(f"ok  {key}: {value:.6g} >= {floor:.6g}")

    if "--append-history" in flags:
        append_history(report)
    if "--render-history" in flags:
        render_history()

    if failures:
        print("\nperf-smoke FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nperf-smoke passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
