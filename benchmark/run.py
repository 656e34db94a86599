#!/usr/bin/env python3
"""The repository benchmark: build the load driver, run workloads, report.

Usage (from the repository root):

  python3 benchmark/run.py                      every workload, seed 42
  python3 benchmark/run.py --workload svc_mixed --seed 7 --seconds 12
  python3 benchmark/run.py --trace              traced run: per-layer metrics,
                                                benchmark/out/<w>.trace.json
                                                and <w>.layers.json
  python3 benchmark/run.py --repeat 3 --out A.json
  python3 benchmark/run.py --compare A.json B.json
  python3 benchmark/run.py --smoke              1 s per workload, audits and
                                                output schema, no bounds
  python3 benchmark/run.py --self-test          histogram vs sorted samples

Each run is a fresh process of build-benchmark/oftm_benchmark, so peak
memory is per workload. Metrics are printed by name with their unit; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Workloads, metrics, units and regression
bounds come from BENCHMARK.json at the repository root, plus the
per-kind metrics in KIND_METRICS below. The exit code is 0 only when
every run built, ran and passed its audit.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / "build-benchmark"
BINARY = BUILD_DIR / "oftm_benchmark"
WARMUP_S = 2.0
SMOKE_SECONDS = 1.0
SMOKE_WARMUP_S = 0.25
# Set-up, warm-up and audits on top of the measured seconds.
RUN_SLACK_S = 150

# End-to-end latencies of an op kind that some workload's mix does not
# issue: no puts on the bank workloads, no scans on svc_transfer. Every
# BENCHMARK.json metric must exist on every workload, so these live here.
# A record carries one exactly when its mix issues the kind, and
# --compare bounds it there.
KIND_METRICS = [
    {"name": "put_p99_us", "kind": "put", "unit": "us", "better": "lower",
     "bound": 0.25},
    {"name": "scan_p50_us", "kind": "scan", "unit": "us", "better": "lower",
     "bound": 0.25},
    {"name": "scan_p99_us", "kind": "scan", "unit": "us", "better": "lower",
     "bound": 0.25},
]
# --compare calls a change within bound when it is smaller than this, in
# the metric's unit, whatever its share of the median.
ABSOLUTE_FLOORS = {"setup_s": 0.25, "peak_rss_mb": 16.0}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("error:", message)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_build_step(cmd, timeout):
    """Runs cmd in its own process group, so a timeout stops the compilers
    the build tool started as well. Returns the exit code."""
    # Build chatter goes to stderr: stdout carries only results.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "oftm_benchmark", "-j", jobs])
    for cmd in steps:
        try:
            code = run_build_step(cmd, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd[:2])} failed: {e}")
        if code != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {code}")
    if not BINARY.exists():
        fail(f"build produced no {BINARY}")


def bench_env():
    """The environment minus the obs layer's own trace/report/sampling
    switches, so no run records or samples more than the benchmark asks."""
    drop = ("OFTM_TRACE_FILE", "OFTM_REPORT_FILE", "OFTM_OBS_SAMPLE")
    return {k: v for k, v in os.environ.items()
            if k not in drop and not k.startswith("OFTM_TRACE_")}


def git_commit():
    # Outside a git checkout, git would search the parent directories.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(workload, seed, seconds, trace, warmup=WARMUP_S):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--warmup", repr(float(warmup)),
           "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=bench_env(),
                              capture_output=True, text=True,
                              timeout=warmup * 2 + seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: {BINARY.name} timed out")
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: {BINARY.name} exited {done.returncode} "
             "without a record")
    if done.returncode not in (0, 1):
        fail(f"{workload}: {BINARY.name} exited {done.returncode}")
    record["git_commit"] = git_commit()
    return record


def bounded_metrics(record, spec):
    """The end-to-end metrics bounded on this record's workload."""
    return spec["end_to_end"] + [m for m in KIND_METRICS
                                 if record["mix"][m["kind"]] > 0]


def schema_problems(record, spec, trace):
    """Names, units and values the record must carry for BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else bounded_metrics(record, spec)
    problems = []
    metrics = record.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} "
                            f"!= {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{m['name']}: end-to-end value "
                            f"{got['value']} is not positive")
    if not trace and set(metrics) != {m["name"] for m in wanted}:
        problems.append("end-to-end metrics differ from the bounded set: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def print_record(record):
    m = record["machine"]
    print(f"== {record['workload']} ({record['backend']}) seed "
          f"{record['seed']:.0f}, "
          f"{'traced' if record['traced'] else 'untraced'}, "
          f"{record['load']['measured_s']:g} s after "
          f"{record['load']['warmup_s']:g} s warm-up in "
          f"{record['load']['rounds']:.0f} round(s), "
          f"{record['load']['clients']:.0f} closed-loop clients; "
          f"{m['nproc']:.0f} CPUs ({m['cpu_model']})"
          f"{', OVERSUBSCRIBED' if m['oversubscribed'] else ''}")
    print(f"   correct={record['correct']} audit={record['audit']} "
          f"attempted={record['attempted']:.0f} failed={record['failed']:.0f} "
          f"failed_ratio={record['failed_ratio']:g}")
    for name, v in record["metrics"].items():
        print(f"   {name:<44} {v['value']:>16.6g} {v['unit']}")
    for name, v in record["reference"].items():
        print(f"   (ref) {name:<38} {v['value']:>16.6g} {v['unit']}")


def result_line(records, spec, trace):
    """The last stdout line: one JSON object. Metric values are medians
    over repeats; with several workloads, names carry a workload prefix."""
    names = [m["name"] for m in (spec["per_layer"] if trace
                                 else spec["end_to_end"])]
    metrics = {}
    for workload, runs in records.items():
        prefix = f"{workload}." if len(records) > 1 else ""
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if values:
                metrics[prefix + name] = {
                    "value": statistics.median(values),
                    "unit": runs[0]["metrics"][name]["unit"]}
    runs = [r for rs in records.values() for r in rs]
    return json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": int(sum(r["attempted"] for r in runs)),
        "failed": int(sum(r["failed"] for r in runs)),
        "metrics": metrics,
    })


def compare(path_a, path_b, spec):
    """Apply the bounds per (workload, metric): B against A. Every run of
    either set must also have failed no op (failed_ratio exactly 0)."""
    a = json.loads(Path(path_a).read_text())["records"]
    b = json.loads(Path(path_b).read_text())["records"]
    regressed = False
    print(f"{'workload':<14} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        worst = max(r["failed_ratio"] for r in a[workload] + b[workload])
        regressed = regressed or worst != 0
        print(f"{workload:<14} {'failed_ratio':<18} {'max':>12} "
              f"{worst:>12.6g} {'':>9} {'':>7} {'0':>6}  "
              f"{'within bound' if worst == 0 else 'FAILED OPS'}")
        for m in bounded_metrics(a[workload][0], spec):
            if m["name"] not in b[workload][0]["metrics"]:
                continue
            va = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            b_wins = all(sign * (y - x) < 0 for x in va for y in vb)
            if abs(qb[1] - qa[1]) <= ABSOLUTE_FLOORS.get(m["name"], 0):
                verdict = "within floor"
            elif spread > m["bound"]:
                verdict = "better" if b_wins else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<14} {m['name']:<18} {qa[1]:>12.6g} "
                  f"{qb[1]:>12.6g} {worse:>+9.2%} {spread:>7.2%} "
                  f"{m['bound']:>6.0%}  {verdict}")
    return 1 if regressed else 0


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append", choices=workloads,
                   help="run only this workload (repeatable)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured seconds per run (traced: half traced, "
                        "half an untraced reference)")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"], help="traced run (per-layer metrics)")
    p.add_argument("--repeat", type=int, default=1,
                   help="fresh-process runs per workload")
    p.add_argument("--out", help="write every record to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out files against the bounds")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare, spec))
    if args.repeat < 1 or not 0 < args.seconds <= 600:
        fail("--repeat must be >= 1 and --seconds in (0, 600]")

    build()
    if args.self_test:
        done = subprocess.run([str(BINARY), "--self-test"], timeout=120)
        sys.exit(done.returncode)

    chosen = args.workload or workloads
    if args.smoke:
        bad = 0
        for w in chosen:
            for trace in (False, True):
                r = run_once(w, args.seed, SMOKE_SECONDS, trace,
                             warmup=SMOKE_WARMUP_S)
                problems = schema_problems(r, spec, trace)
                if not r["correct"]:
                    problems.append(f"audit: {r['audit']}")
                if r["failed"]:
                    problems.append(f"{r['failed']:.0f} failed ops")
                bad += bool(problems)
                print(f"smoke {w:<14} {'traced' if trace else 'untraced':<8} "
                      f"{'ok' if not problems else '; '.join(problems)}")
        sys.exit(1 if bad else 0)

    trace = args.trace == "1"
    records = {}
    ok = True
    for w in chosen:
        records[w] = []
        for _ in range(args.repeat):
            r = run_once(w, args.seed, args.seconds, trace)
            print_record(r)
            problems = schema_problems(r, spec, trace)
            for problem in problems:
                log(f"{w}: {problem}")
            ok = ok and r["correct"] and not problems
            records[w].append(r)
        if args.repeat > 1:
            print(f"-- {w}: {args.repeat} runs, median [q1, q3]")
            for name in records[w][0]["metrics"]:
                q1, med, q3 = quartiles(
                    [r["metrics"][name]["value"] for r in records[w]])
                print(f"   {name:<44} {med:>16.6g} [{q1:.6g}, {q3:.6g}] "
                      f"{records[w][0]['metrics'][name]['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "traced": trace,
            "repeat": args.repeat, "records": records}, indent=1) + "\n")
    print(result_line(records, spec, trace))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
