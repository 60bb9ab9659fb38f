#!/usr/bin/env python3
"""Diff BENCH_<figure>.json telemetry against a committed baseline.

Every bench_fig* binary writes machine-readable telemetry (schema
"uoi-bench-v1", emitted by uoi::bench::BenchReport in bench/bench_common.hpp)
into $UOI_BENCH_DIR. This gate compares a fresh run against the baselines in
bench/baselines/ and fails on wall-time or bucket regressions beyond a
relative tolerance.

Timings below --floor seconds in BOTH runs are skipped: at bench scale many
buckets are sub-millisecond and pure scheduler noise, and absolute times are
only comparable on similar hardware anyway. Schema and structural problems
(missing figures, malformed JSON, missing keys) always fail, even in
--informational mode, because they indicate a broken emitter rather than a
slow machine.

Usage:
  check_bench_regression.py --baseline bench/baselines --current out/bench \
      [--tolerance 0.25] [--floor 0.05] [--informational]

Exit status: 0 ok, 1 regression (or structural failure), 2 usage error.
"""

import argparse
import glob
import json
import os
import sys

REQUIRED_TOP_KEYS = ("schema", "figure", "config", "wall_seconds", "buckets",
                     "imbalance", "percentiles")
BUCKET_KEYS = ("computation", "communication", "distribution", "data_io")
SCHEMA = "uoi-bench-v1"


def load_reports(directory):
    reports = {}
    errors = []
    pattern = os.path.join(directory, "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{path}: unreadable ({exc})")
            continue
        problems = validate(doc)
        if problems:
            errors.extend(f"{path}: {p}" for p in problems)
            continue
        reports[doc["figure"]] = doc
    return reports, errors


def validate(doc):
    problems = []
    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            problems.append(f"missing key '{key}'")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema '{doc['schema']}' != '{SCHEMA}'")
    for key in BUCKET_KEYS:
        if key not in doc["buckets"]:
            problems.append(f"buckets missing '{key}'")
        elif not isinstance(doc["buckets"][key], (int, float)):
            problems.append(f"buckets['{key}'] is not a number")
    if not isinstance(doc["wall_seconds"], (int, float)):
        problems.append("wall_seconds is not a number")
    if not isinstance(doc["config"], dict):
        problems.append("config is not an object")
    return problems


def compare_metric(figure, name, base, cur, tolerance, floor):
    """Returns (verdict, message). verdict: None=skip/ok, 'regression'."""
    if base < floor and cur < floor:
        return None, None
    if base <= 0.0:
        return None, None  # no meaningful ratio
    ratio = cur / base
    if ratio > 1.0 + tolerance:
        return ("regression",
                f"{figure}: {name} {base:.4f}s -> {cur:.4f}s "
                f"({ratio:.2f}x, tolerance {1.0 + tolerance:.2f}x)")
    if ratio < 1.0 - tolerance:
        return (None,
                f"{figure}: {name} improved {base:.4f}s -> {cur:.4f}s "
                f"({ratio:.2f}x)")
    return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory holding baseline BENCH_*.json files")
    parser.add_argument("--current", required=True,
                        help="directory holding the fresh BENCH_*.json files")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative slowdown allowed (default 0.25 = +25%%)")
    parser.add_argument("--floor", type=float, default=0.05,
                        help="ignore timings below this many seconds in both "
                             "runs (default 0.05)")
    parser.add_argument("--informational", action="store_true",
                        help="report regressions but exit 0 for them "
                             "(structural failures still exit 1)")
    parser.add_argument("--subset", action="store_true",
                        help="the current run intentionally covers only some "
                             "figures; baseline figures absent from --current "
                             "are noted instead of failing structurally")
    args = parser.parse_args()

    for d in (args.baseline, args.current):
        if not os.path.isdir(d):
            print(f"error: not a directory: {d}", file=sys.stderr)
            return 2

    baseline, base_errors = load_reports(args.baseline)
    current, cur_errors = load_reports(args.current)

    structural = list(base_errors) + list(cur_errors)
    if not baseline:
        structural.append(f"no valid BENCH_*.json under {args.baseline}")

    regressions = []
    notes = []
    for figure, base in sorted(baseline.items()):
        cur = current.get(figure)
        if cur is None:
            msg = (f"{figure}: present in baseline but missing "
                   f"from {args.current}")
            if args.subset:
                notes.append(f"{msg} (allowed by --subset)")
            else:
                structural.append(msg)
            continue
        verdict, msg = compare_metric(figure, "wall", base["wall_seconds"],
                                      cur["wall_seconds"], args.tolerance,
                                      args.floor)
        if verdict:
            regressions.append(msg)
        elif msg:
            notes.append(msg)
        for key in BUCKET_KEYS:
            verdict, msg = compare_metric(figure, f"buckets.{key}",
                                          base["buckets"][key],
                                          cur["buckets"][key],
                                          args.tolerance, args.floor)
            if verdict:
                regressions.append(msg)
            elif msg:
                notes.append(msg)

    # Live-telemetry emitter gate: figures exporting
    # telemetry_overhead_pct (fig6) must keep the emitter below 2% of
    # wall. Runs shorter than --floor in the telemetry-off configuration
    # are pure noise at that percentage and are skipped like any other
    # sub-floor timing; the bitwise-identity flag is structural either
    # way (a perturbed result means the emitter wrote state it must only
    # read).
    for figure, cur in sorted(current.items()):
        config = cur.get("config", {})
        if "telemetry_bitwise" in config and config["telemetry_bitwise"] != 1:
            structural.append(
                f"{figure}: telemetry run was not bit-identical "
                f"(telemetry_bitwise={config['telemetry_bitwise']})")
        overhead = config.get("telemetry_overhead_pct")
        wall_off = config.get("telemetry_wall_off_seconds", 0.0)
        if overhead is None:
            continue
        if wall_off < args.floor:
            notes.append(f"{figure}: telemetry overhead {overhead:.2f}% "
                         f"unchecked (off-run wall {wall_off:.3f}s below "
                         f"floor {args.floor}s)")
        elif overhead > 2.0:
            regressions.append(
                f"{figure}: telemetry emitter overhead {overhead:.2f}% "
                f"exceeds the 2% gate (off-run wall {wall_off:.3f}s)")

    # Screening / SIMD fast-path gates (fig16). The flags are structural,
    # whatever the machine speed: screen_bitwise is 0 when fig16's chain
    # gates fail (among them the screened chain selecting another support
    # than the unscreened solver's chain at some lambda) or when the
    # schedule policies select different models; simd_bitwise is 0 when a
    # dispatched kernel leaves the fixed reduction tree. The speedup gate
    # (strong chain against the unscreened chain) is a perf regression
    # (machine-dependent, so it respects --informational).
    for figure, cur in sorted(current.items()):
        config = cur.get("config", {})
        for flag, contract in (
                ("screen_bitwise", "screened solves changed the model"),
                ("simd_bitwise", "dispatched SIMD kernels diverged "
                                 "from scalar")):
            if flag in config and config[flag] != 1:
                structural.append(
                    f"{figure}: {contract} ({flag}={config[flag]})")
        speedup = config.get("screen_speedup")
        if speedup is not None and speedup < 3.0:
            regressions.append(
                f"{figure}: screening selection-compute speedup "
                f"{speedup:.2f}x below the 3x gate")

    for figure in sorted(set(current) - set(baseline)):
        notes.append(f"{figure}: new figure (no baseline yet)")

    compared = sorted(set(baseline) & set(current))
    print(f"compared {len(compared)} figure(s) "
          f"(tolerance +{args.tolerance * 100:.0f}%, floor {args.floor}s)")
    for msg in notes:
        print(f"note: {msg}")
    for msg in structural:
        print(f"FAIL (structural): {msg}")
    for msg in regressions:
        print(f"FAIL (regression): {msg}")

    if structural:
        return 1
    if regressions:
        if args.informational:
            print("informational mode: regressions reported but not fatal")
            return 0
        return 1
    print("ok: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
