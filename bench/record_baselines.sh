#!/usr/bin/env bash
# Re-record every committed bench baseline on the reference box.
#
# Usage: bench/record_baselines.sh [BUILD_DIR]   (default: build/release)
#
# Produces bench/baselines/REPORT_<bench>.jsonl, the shared JSON-lines run
# report, for all 14 benches.
#
# Run from the repo root after a Release build of the bench targets.
set -euo pipefail

build_dir="${1:-build/release}"
out_dir="$(cd "$(dirname "$0")" && pwd)/baselines"
mkdir -p "$out_dir"

gbench_benches=(bench_checker bench_contention_managers bench_dap_hotspot
                bench_ds bench_eventual_ic bench_foc bench_foctm_overhead
                bench_reclamation bench_throughput)
standalone_benches=(bench_consensus_number bench_dap_violations
                    bench_fig1_history bench_fig2_dap bench_shard_service)

for b in "${gbench_benches[@]}" "${standalone_benches[@]}"; do
  report="$out_dir/REPORT_${b}.jsonl"
  rm -f "$report"
  echo "== $b -> $(basename "$report")"
  args=()
  case "$b" in
    bench_dap_hotspot)
      # tl+disruptor is the designed blocking pathology: workers spin out
      # 10000 attempts against held encounter locks, which is unbounded
      # wall time on small boxes. Baseline every other combination.
      args=(--benchmark_filter=-B2/hotspot_indirect/tl/disruptor)
      ;;
  esac
  OFTM_REPORT_FILE="$report" "$build_dir/$b" "${args[@]}" > /dev/null
done

echo "Baselines written to $out_dir"
