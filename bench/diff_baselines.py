#!/usr/bin/env python3
"""Diff a fresh benchmark run report against the committed baselines.

Usage:
    bench/diff_baselines.py FRESH.jsonl [BASELINE.jsonl]
        [--threshold 0.10] [--strict]

Both files are the shared JSON-lines run report every bench emits via
$OFTM_REPORT_FILE (bench/baselines/REPORT_*.jsonl). Records are matched by
their identity fields (bench/scenario/backend plus the config object) and
compared on result.throughput_tx_s (or the first *_ns mean for
latency-shaped records). Records with no perf metric (claim matrices like
E-T9/E-C11 or F2) are compared field-for-field: a changed claim is flagged
like a regression — those records encode reproduction results, not
machine speed.

BASELINE defaults to bench/baselines/<basename of FRESH>. Only entries
present in both files are compared; fresh-only entries are listed so a
missing baseline never reads as a pass. Exit status is 0 unless --strict
is given, in which case any flagged regression exits 1 — CI runs it
non-blocking (no --strict) and pastes the table into the job summary.

Throughput metrics regress downward; time metrics (*_ns) regress upward —
the direction is picked from the metric name.
"""

import argparse
import json
import os
import sys

# Fields that identify a JSON-lines record (everything else is a result).
# The config subobject is part of the identity wholesale.
KEY_FIELDS = (
    "bench", "scenario", "backend", "protocol", "abort_semantics",
    "procs", "depth", "semantics", "mode", "threads", "workers",
    "with_disruptor",
)

# Result fields a perf comparison reads, in priority order.
METRIC_FIELDS = (
    ("result.throughput_tx_s", False),   # higher is better
    ("throughput_tx_s", False),
    ("mean_rmw_ns", True),               # lower is better
    ("mean_op_ns", True),
    ("mean_ns", True),
)


def flatten(obj, prefix=""):
    out = {}
    for k, v in obj.items():
        path = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(flatten(v, path + "."))
        elif not isinstance(v, list):
            out[path] = v
    return out


def load_jsonl(path):
    """Map identity key -> flattened record for every report line.

    Records are matched on their full identity (key fields + the whole
    config object); the #n suffix disambiguates only true duplicates
    (identical identity emitted more than once, e.g. an appended report
    file), so matching is insensitive to emission order and to filtered
    runs that produce a subset of the baseline's records.
    """
    out = {}
    full_counts = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # partial line from an interrupted run
            if not isinstance(rec, dict):
                continue
            flat = flatten(rec)
            short_parts = [str(flat[k]) for k in KEY_FIELDS if k in flat]
            if "config.threads" in flat and "threads" not in flat:
                short_parts.append(f"t{flat['config.threads']}")
            short = "/".join(short_parts) or "record"
            full = " ".join([short] + [
                f"{k}={flat[k]}" for k in sorted(flat)
                if k.startswith("config.")
            ])
            n = full_counts.get(full, 0) + 1
            full_counts[full] = n
            suffix = f" #{n}" if n > 1 else ""
            flat["__display"] = short + suffix
            out[full + suffix] = flat
    return out


def jsonl_metric(flat):
    for name, _lower in METRIC_FIELDS:
        if flat.get(name) not in (None, 0):
            return flat[name], name
    return None, None


def is_obs_field(key):
    """Observability fields (abort attribution, phase timing) are
    informational: phase ns/counts are wall-clock-shaped and abort mixes
    are schedule-shaped, so neither belongs in a claim comparison."""
    return (".abort_reasons." in key or ".phases." in key
            or key.endswith(".forced_abort_ratio"))


def is_latency_field(key):
    """Latency histogram summaries (result.*_ns.{count,mean,p50,p90,p99,
    p999,max} and friends) and checker wall-time fields (*_seconds, e.g.
    bench_checker's check_seconds) are machine-speed-shaped. They are
    reported for context next to the throughput metric, but they never
    belong in a field-for-field claim comparison — a p999 or a check wall
    time that moved with the weather is not a changed reproduction
    result."""
    return "_ns." in key or key.endswith("_ns") or key.endswith("_seconds")


def claim_fields(flat):
    """Non-key, non-metric scalar results for metric-less records."""
    out = {}
    for k, v in flat.items():
        if k in KEY_FIELDS or k.startswith("config.") or k == "__display":
            continue
        if any(k == m for m, _ in METRIC_FIELDS):
            continue
        if is_obs_field(k) or is_latency_field(k):
            continue
        out[k] = v
    return out


def obs_summary(flat):
    """One-liner from the record's obs fields: the dominant abort reason,
    the phase with the largest time share, and any wall-time fields
    (*_seconds — informational, never compared; see is_latency_field).
    Empty when the record has none of those."""
    reasons = {}
    phase_ns = {}
    walltimes = []
    for k, v in flat.items():
        if ".abort_reasons." in k and v:
            reasons[k.rsplit(".", 1)[1]] = v
        elif ".phases." in k and k.endswith(".ns") and v:
            phase_ns[k.rsplit(".", 2)[1]] = v
        elif k.endswith("_seconds") and not k.startswith("config.") and v:
            walltimes.append(f"{k.rsplit('.', 1)[-1]} {v:.3g}s")
    parts = []
    if reasons:
        name, count = max(reasons.items(), key=lambda kv: kv[1])
        parts.append(f"{name}×{count}")
    if phase_ns:
        name, ns = max(phase_ns.items(), key=lambda kv: kv[1])
        parts.append(f"{name} {ns / sum(phase_ns.values()):.0%}")
    parts.extend(walltimes)
    return " · ".join(parts)


def lower_is_better(metric):
    return metric.endswith("_ns")


def main():
    parser = argparse.ArgumentParser(
        description="Flag regressions against committed bench baselines")
    parser.add_argument("fresh", help="freshly generated run report")
    parser.add_argument("baseline", nargs="?",
                        help="baseline file (default: bench/baselines/<name>)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression to flag (default 0.10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any regression exceeds the threshold")
    args = parser.parse_args()

    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "baselines",
            os.path.basename(args.fresh))
    if not os.path.exists(baseline_path):
        print(f"no baseline at {baseline_path}; nothing to diff", flush=True)
        return 0

    fresh = load_jsonl(args.fresh)
    base = load_jsonl(baseline_path)

    common = [name for name in base if name in fresh]
    fresh_only = [name for name in fresh if name not in base]
    if not common:
        print("no common entries between baseline and fresh run")
        return 0

    rows = []
    flagged = []
    skipped = []
    claims_checked = 0
    for name in common:
        display = base[name].get("__display", name)
        base_value, base_metric = jsonl_metric(base[name])
        fresh_value, fresh_metric = jsonl_metric(fresh[name])
        if base_metric is None and fresh_metric is None:
            # Claim record: any changed result field is a finding.
            claims_checked += 1
            b, f = claim_fields(base[name]), claim_fields(fresh[name])
            changed = sorted(k for k in (set(b) | set(f))
                             if b.get(k) != f.get(k))
            if changed:
                for k in changed:
                    rows.append((f"{display} [{k}]", "claim",
                                 b.get(k), f.get(k), None, True, ""))
                    flagged.append(f"{display} [{k}]")
            continue
        if base_value in (None, 0) or fresh_value is None:
            skipped.append((display, "metric missing or zero"))
            continue
        if base_metric != fresh_metric:
            skipped.append(
                (display, f"metric mismatch ({base_metric} vs {fresh_metric})"))
            continue
        delta = (fresh_value - base_value) / base_value
        regressed = (delta > args.threshold if lower_is_better(base_metric)
                     else delta < -args.threshold)
        # Informational only — an abort-mix or phase-share change is never
        # flagged; it explains a delta, it does not constitute one.
        info = obs_summary(fresh[name])
        rows.append((display, base_metric, base_value, fresh_value, delta,
                     regressed, info))
        if regressed:
            flagged.append(display)

    claims_note = (f", {claims_checked} claim record(s) checked"
                   if claims_checked else "")
    print(f"### Bench diff vs `{os.path.basename(baseline_path)}` "
          f"({len(rows)} compared{claims_note}, "
          f"threshold {args.threshold:.0%})\n")
    print("| benchmark | metric | baseline | fresh | delta | abort/phase | |")
    print("| --- | --- | ---: | ---: | ---: | --- | --- |")
    for name, metric, base_value, fresh_value, delta, regressed, info in rows:
        mark = "🔴 regression" if regressed else ""
        if metric == "claim":
            print(f"| `{name}` | claim | {base_value} | {fresh_value} | "
                  f"changed | | 🔴 claim changed |")
            continue
        print(f"| `{name}` | {metric} | {base_value:.3g} | {fresh_value:.3g} "
              f"| {delta:+.1%} | {info} | {mark} |")
    print()
    if skipped:
        # A pair dropped from the table must not read as "no regression".
        for name, why in skipped[:10]:
            print(f"- `{name}` present in both files but **not compared**: "
                  f"{why}")
        if len(skipped) > 10:
            print(f"- … +{len(skipped) - 10} more uncompared pairs")
        print()
    if fresh_only:
        # Not comparing a benchmark is not the same as it passing — say so.
        fresh_only = [fresh[n].get("__display", n) for n in fresh_only]
        shown = ", ".join(f"`{name}`" for name in fresh_only[:5])
        more = f", … +{len(fresh_only) - 5} more" if len(fresh_only) > 5 else ""
        print(f"{len(fresh_only)} entrie(s) in the fresh run have no "
              f"baseline and were **not compared**: {shown}{more}. "
              "Re-record the baseline to cover them.\n")
    if flagged:
        print(f"**{len(flagged)} regression(s) beyond "
              f"{args.threshold:.0%}.** Baselines were recorded on the "
              "reference box; rule out machine noise before acting.")
    else:
        print("No regressions beyond the threshold.")

    return 1 if (flagged and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
