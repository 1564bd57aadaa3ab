#!/usr/bin/env bash
# Runs the benchmark trajectory groups on their fixed workloads and
# records the results as JSON, so the repo's performance is measurable
# across PRs:
#
#   update_time         E6: scalar per-item insertion (all summaries)
#   batch_update_time   insert_batch on the same workload
#   sharded_throughput  hh-pipeline partition_and_merge ingestion, 1/2/4 shards
#   thread_scaling      shard-runtime dispatch + merge, forced seq vs
#                       parallel, 1/2/4 shards (records _meta/host_cores)
#   query_time          report() extraction at three universe sizes
#   merge_serialize     summary merging, snapshot round trips, and the
#                       decode-only restore path (snapshot_decode)
#   read_write_mix      hot (cached) queries and mixed write-then-read
#   serve_throughput    hh-server loopback TCP: ping RTT, wire ingest,
#                       wire query (records _meta/serve_query_p50_ns,
#                       _meta/serve_query_p99_ns)
#   dyadic              Count-Min range-query bank: L-fold ingest,
#                       warm/cold heavy-prefix descent, canonical range
#                       decomposition, bank merge + snapshot
#   wal                 write-ahead log: append+commit (inline fsync),
#                       cold replay, acked-ingest RTT with/without WAL
#
# Usage: scripts/bench.sh [output.json]   (default: BENCH_1.json)
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_1.json}"

# The vendored mini-criterion writes a JSON array of
# {group, id, mean_ns, best_ns, samples, throughput} records to the
# path named by CRITERION_JSON, merging across bench binaries (records
# with the same group/id are replaced, others kept). cargo changes
# directory, so relative output paths must be anchored to the invoker's
# intent (repo root). Start fresh so removed benchmarks do not linger.
case "${out}" in
/*) json="${out}" ;;
*) json="$(pwd)/${out}" ;;
esac
rm -f "${json}"

for bench in update_time batch_update_time sharded_throughput thread_scaling query_time merge_serialize read_write_mix serve_throughput dyadic wal; do
    CRITERION_JSON="${json}" cargo bench -p hh-bench --bench "${bench}"
done

if [ ! -s "${json}" ]; then
    echo "error: no benchmark records at ${json}" >&2
    exit 1
fi
echo "benchmark records written to ${out}"
