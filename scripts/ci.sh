#!/usr/bin/env bash
# Offline CI for the tsvr workspace: release build, tests, lints, and a
# probes-compiled-out build. No network access is required — the
# workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> TSVR_THREADS=1 cargo test -q --workspace (forced-sequential runtime)"
TSVR_THREADS=1 cargo test -q --workspace

# Golden vision digests at two worker counts: two workers is the band
# split of a 2-vCPU host, and three cut frames into uneven row bands and
# chunks; neither may change a pixel or a track (the default and
# one-thread runs are in the two suites above).
echo "==> vision golden digests (TSVR_THREADS=2 and 3)"
TSVR_THREADS=2 cargo test -q --test vision_golden
TSVR_THREADS=3 cargo test -q --test vision_golden

# Repository benchmark smoke (--toy): every workload end to end, traced
# and untraced. Its ingest gate requires the stage-by-stage replay
# through the public vision kernels to reproduce `pipeline::process`
# tracks bit for bit, so it runs at the default and at one thread.
echo "==> perfbench smoke (--toy), default and TSVR_THREADS=1"
cargo test -q --offline --manifest-path perfbench/Cargo.toml
TSVR_THREADS=1 cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The crash-consistency sweep runs with the full workspace tests above;
# this rerun pins the fast-mode path (used for quick local iteration)
# so a regression in the env-var gate cannot slip through. Budget: <30s.
echo "==> crash-consistency suite (TSVR_CRASH_FAST=1)"
TSVR_CRASH_FAST=1 cargo test -q --test crash_consistency

# Sharded crash sweep: a crash at every op boundary of a cross-shard
# workload (torn tail on a rotating victim file, manifest included)
# must leave every shard independently recoverable. Fast mode thins the
# sweep to every 3rd crash point; the full sweep runs with the
# workspace tests above.
echo "==> sharded crash sweep (TSVR_CRASH_FAST=1)"
TSVR_CRASH_FAST=1 cargo test -q -p tsvr-viddb --test shard_crash

# The smoke run exercises the bench end-to-end but writes its JSON in a
# scratch directory so it cannot clobber a committed paper-scale
# BENCH_parallel.json. The committed full-mode JSON must record a pass
# under the tightened rule (parity only on true single-core hosts, and
# threads=n never >2% slower than threads=1 on any host).
echo "==> parallel bench smoke run (TSVR_BENCH_FAST=1)"
repo="$PWD"
par_tmp="$(mktemp -d)"
(cd "$par_tmp" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin parallel)
grep -q '"pass":true' "$par_tmp/BENCH_parallel.json"
grep -q '"no_slowdown_pass":true' BENCH_parallel.json
grep -q '"pass":true' BENCH_parallel.json

# Kernels bench smoke: proves the SoA gram / fused-exp decision / rolling
# DTW / memoized-gram paths are bit-identical to their scalar and
# from-scratch references end to end. Fast mode gates identity only
# (short batches are too noisy for speedup targets); the committed
# full-mode BENCH_kernels.json must also record its measured speedups as
# a pass.
echo "==> kernels bench smoke run (TSVR_BENCH_FAST=1)"
kern_tmp="$(mktemp -d)"
(cd "$kern_tmp" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin kernels)
grep -q '"pass":true' "$kern_tmp/BENCH_kernels.json"
grep -q '"identical":true' BENCH_kernels.json
grep -q '"pass":true' BENCH_kernels.json

# Same scratch-dir discipline for the feature-index bench: proves the
# cold-vs-indexed comparison (and its bit-identity assertion) end to end
# without touching a committed BENCH_index.json.
echo "==> index bench smoke run (TSVR_BENCH_FAST=1)"
(cd "$(mktemp -d)" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin index)

# Shard bench smoke: proves the scatter-gather byte-identity assertion
# (the real shard partition at 1 and N threads vs the same clips as
# one shard, all through `topk`) and the compressed index
# codec's bit-exact round trip end to end; the committed paper-scale
# BENCH_shard.json stays untouched and is sanity-checked below.
echo "==> shard bench smoke run (TSVR_BENCH_FAST=1)"
shard_tmp="$(mktemp -d)"
(cd "$shard_tmp" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin shard)
grep -q '"pass":true' "$shard_tmp/BENCH_shard.json"
grep -q '"rankings_byte_identical":true' BENCH_shard.json
grep -q '"compression_bit_exact":true' BENCH_shard.json
grep -q '"pass":true' BENCH_shard.json

# Query-planner bench smoke: proves the progressive planner's rankings
# are byte-identical to a post-filtered full scan (1 and 4 threads) and
# that the narrow query's plan actually pruned shards and pre-filtered
# windows. Fast mode gates correctness only; the committed full-mode
# BENCH_query.json must also record the latency-falls-with-selectivity
# pass.
echo "==> query bench smoke run (TSVR_BENCH_FAST=1)"
query_tmp="$(mktemp -d)"
(cd "$query_tmp" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin query)
grep -q '"pass":true' "$query_tmp/BENCH_query.json"
grep -q '"rankings_byte_identical":true' BENCH_query.json
grep -q '"pass":true' BENCH_query.json

# Scenario-fleet smoke: the retrieval-quality matrix over the fleet in
# fast mode (shorter clips, paper learner only). The binary asserts
# every cell clears its AP floor, index-served bags are bit-identical,
# and the handoff row scatter-gathers + survives a shard quarantine;
# the committed full-matrix BENCH_scenarios.json is sanity-checked and
# must contain no failing cell.
echo "==> scenario fleet smoke run (TSVR_SCENARIO_FAST=1)"
fleet_tmp="$(mktemp -d)"
(cd "$fleet_tmp" && TSVR_SCENARIO_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin scenarios)
grep -q '"pass":true' "$fleet_tmp/BENCH_scenarios.json"
! grep -q '"cell_pass":false' "$fleet_tmp/BENCH_scenarios.json"
grep -q '"index_served_bit_identical":true' BENCH_scenarios.json
grep -q '"handoff_scatter_gather":true' BENCH_scenarios.json
! grep -q '"cell_pass":false' BENCH_scenarios.json
grep -q '"pass":true' BENCH_scenarios.json

# Serve bench smoke: proves the TCP fan-out and the byte-identity
# assertion against the single-threaded in-process path end to end.
echo "==> serve bench smoke run (TSVR_BENCH_FAST=1)"
(cd "$(mktemp -d)" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin serve)

# Obs-overhead smoke: the full traced measurement path (probes on,
# traced, off) end to end in a scratch dir. Fast mode gates only gross
# regressions (noise in a single short batch exceeds the real 2%
# target); the committed full-mode BENCH_obs_overhead.json is checked
# against the 2% acceptance number below.
echo "==> obs_overhead bench smoke run (TSVR_BENCH_FAST=1, traced)"
obs_tmp="$(mktemp -d)"
(cd "$obs_tmp" && TSVR_BENCH_FAST=1 cargo run --release -q \
    --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin obs_overhead)
grep -q '"pass":true' "$obs_tmp/BENCH_obs_overhead.json"
grep -q '"pass":true' BENCH_obs_overhead.json
grep -q '"ns_per_iter_traced"' BENCH_obs_overhead.json

# Serve TCP smoke: a scripted NDJSON session over bash's /dev/tcp
# against a real `tsvr serve` process (slowlog retaining everything, so
# the ops plane has traces to serve), then a cross-process check that
# the checkpointed session is readable by the CLI replay path.
echo "==> serve TCP smoke (scripted NDJSON session over /dev/tcp)"
smoke="$(mktemp -d)"
./target/release/tsvr simulate --db "$smoke/smoke.db" \
    --scenario tunnel-small --seed 7 --clip-id 1 >/dev/null
port=$((20000 + RANDOM % 20000))
./target/release/tsvr serve --db "$smoke/smoke.db" \
    --addr "127.0.0.1:$port" --workers 2 \
    --slowlog-ms 0 --flight-dump "$smoke/flight.ndjson" \
    >"$smoke/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then break; fi
    sleep 0.2
done
exec 3<>"/dev/tcp/127.0.0.1/$port"
expect() { # expect <needle> — send stdin line, read one response, grep it
    local needle="$1" line
    read -r line <&3
    echo "   <- $line"
    [[ "$line" == *"$needle"* ]] || {
        echo "serve smoke: expected '$needle' in response" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    }
}
send() { echo "   -> $1"; printf '%s\n' "$1" >&3; }
send '{"op":"ping"}';                                    expect '"ok":"pong"'
send '{"op":"open","clip_id":1,"query":"accident","learner":"ocsvm"}'
                                                         expect '"ok":"opened"'
send '{"op":"page","session_id":1,"n":5}';               expect '"ok":"page"'
send '{"op":"feedback","session_id":1,"labels":[[0,true],[1,false]]}'
                                                         expect '"ok":"learned"'
send '{"op":"page","session_id":1,"n":5}';               expect '"ok":"page"'
send '{"op":"page","session_id":99}';                    expect '"error":"not_found"'
# Query language over the wire: a planned query answers with a plan
# receipt; a typo'd event name is a typed error with a suggestion.
send '{"op":"query","expr":"vdiff >= 0.5","k":3}';       expect '"ok":"query"'
send '{"op":"query","expr":"event = acident"}';          expect '"error":"bad_request"'
# The remote CLI proxies through the server; the local CLI plans
# directly against the database. Same query, byte-identical output.
./target/release/tsvr query "vdiff >= 0.5" \
    --addr "127.0.0.1:$port" --top 3 | tee "$smoke/query_remote.out"
# Ops plane: live registry snapshot, latest trace tree, slowlog.
send '{"op":"stats"}';                                   expect '"ok":"stats"'
send '{"op":"trace"}';                                   expect '"ok":"trace"'
send '{"op":"trace","trace_id":999999999}';              expect '"error":"not_found"'
send '{"op":"slowlog"}';                                 expect '"ok":"slowlog"'
# The CLI subcommands are thin clients over the same three ops.
./target/release/tsvr stats --addr "127.0.0.1:$port" | grep -q 'serve.requests'
./target/release/tsvr trace --addr "127.0.0.1:$port" | grep -q 'serve.latency.'
./target/release/tsvr slowlog --addr "127.0.0.1:$port" | grep -q 'serve.latency.'
send '{"op":"shutdown"}';                                expect '"ok":"shutting_down"'
exec 3<&- 3>&-
wait "$serve_pid"
# The feedback round the TCP client saw acked must be durable and
# replayable from another process.
./target/release/tsvr session list --db "$smoke/smoke.db" | grep -q "MIL_OneClassSVM"
./target/release/tsvr session replay --db "$smoke/smoke.db" \
    --clip-id 1 --session 1 --top 5 | tee "$smoke/replay.out"
grep -q "1 rounds replayed" "$smoke/replay.out"
# Cross-check the planner surfaces: the local CLI (planning directly
# against the database) must print exactly what the remote CLI printed
# while proxying through the server.
./target/release/tsvr query "vdiff >= 0.5" \
    --db "$smoke/smoke.db" --top 3 | tee "$smoke/query_local.out"
diff "$smoke/query_remote.out" "$smoke/query_local.out"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links are checked so a deleted or private name cannot leave
# a dangling link in the public docs. (The `tsvr` bin/lib output
# filename collision is a cargo warning, not a rustdoc one.)
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --workspace --no-default-features (obs probes off)"
cargo build --workspace --no-default-features

echo "==> ci.sh: all green"
