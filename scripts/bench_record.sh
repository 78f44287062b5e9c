#!/usr/bin/env bash
# Regenerate a committed benchmark record from `go test -bench` output.
#
#   bash scripts/bench_record.sh sched   # scheduler core -> BENCH_sched.json
#   bash scripts/bench_record.sh sim     # simulation layer -> BENCH_sim.json
#
# Each benchmark runs three times (-count 3) and cmd/bench keeps the
# minimum of each metric. The raw `go test` text is echoed on stdout,
# so a caller can keep it for benchstat:
#
#   bash scripts/bench_record.sh sched > sched.bench
#
# Record on a quiet machine: concurrent test processes inflate ns/op by
# as much as half.
set -euo pipefail

cd "$(dirname "$0")/.."

case "${1:-}" in
sched)
  # The 13 scheduler-core entries: the benchkit pipeline ladder
  # (10 through 10000 tasks), the restart portfolio sequential and
  # parallel, the heterogeneous instance, and the serving tier's warm
  # batch dispatch and store read.
  pkgs=(./internal/benchkit)
  pattern='^Benchmark(Pipeline(10|50|200|1000|5000|10000|Restarts8|Restarts8Par|Restarts32|Restarts32Par|Machines4)|ServiceBatch|StoreGet)$'
  ;;
sim)
  # The single-iteration replay and the campaign ladder (16, 256 and
  # 4096 runs; sequential, pooled=8 and 2shard).
  pkgs=(./internal/exec ./internal/sim)
  pattern='^Benchmark(Execute|Campaign|CampaignLadder256|CampaignLadder4096)$'
  ;;
*)
  echo "usage: $0 sched|sim" >&2
  exit 2
  ;;
esac

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test "${pkgs[@]}" -run '^$' -bench "$pattern" -benchmem -count 3 -timeout 90m | tee "$raw"
go run ./cmd/bench -out "BENCH_$1.json" "$raw"
