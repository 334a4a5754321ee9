#!/usr/bin/env bash
# Tier-1 verify: build, tests, and the cr-lint static analysis pass.
# Referenced from ROADMAP.md; CI and pre-merge checks should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# --workspace: the root package alone is 66 of the workspace's tests.
cargo test -q --workspace
# Rustdoc runs clean: every intra-doc link resolves.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
cargo run --release -q -p lint --bin cr-lint

# Model-checker smoke: exhaustively explore the commit/quiesce/replica
# protocol models under the bounded tier-1 limits and write the
# state-space stats to BENCH_model.json.  The in-repo models finish
# exhaustively well inside the smoke bounds, so a truncated run means
# the protocol surface grew past them — rerun `cr-model --all` (full,
# effectively unbounded) locally and raise Bounds::smoke deliberately.
cargo run --release -q -p model --bin cr-model -- \
  --all --smoke --bench-json "$PWD/BENCH_model.json"

# Restart-latency smoke: one memory-path and one disk-path restart; the
# bench itself asserts that the memory path decodes every image from
# peer memory and reads no local snapshot from stable storage.
RESTART_LATENCY_SMOKE=1 cargo bench -q -p bench --bench restart_latency

# Full-vs-dedup checkpoint smoke: the bench asserts a 10%-dirty dedup
# interval moves < 25% of the full-image bytes.  The dedup smoke
# additionally runs an SPMD schedule through the content-addressed chunk
# store, asserting a >= 2x cross-rank dedup ratio and that restoring the
# newest interval reads the same chunks however many intervals are
# retained.  Both comparisons land in BENCH_ckpt.json.
CKPT_INCREMENTAL_SMOKE=1 CKPT_DEDUP_SMOKE=1 BENCH_CKPT_JSON="$PWD/BENCH_ckpt.json" \
  cargo bench -q -p bench --bench ckpt_incremental

# Partial-restart smoke: the bench restores 1 failed rank of a 4- and of
# an 8-rank job, asserts each restore respawns exactly that rank and
# decodes exactly one image, and splices the counts into BENCH_ckpt.json
# (after the rewrite above, so the rows survive).
RESTART_PARTIAL_SMOKE=1 BENCH_CKPT_JSON="$PWD/BENCH_ckpt.json" \
  cargo bench -q -p bench --bench restart_latency

# Pipelined-commit smoke: the bench asserts that at 8 ranks an
# early-release request returns before the interval's first filem.gather
# event and a blocking one after it, and writes the machine-readable
# comparison to BENCH_commit.json.
CKPT_OVERLAP_SMOKE=1 BENCH_COMMIT_JSON="$PWD/BENCH_commit.json" \
  cargo bench -q -p bench --bench ckpt_overlap

# Data-path smoke: the bench asserts the parallel manifest builder is
# byte-identical to the sequential one.  The >= 1.8x hash-speedup wall-clock gate
# binds only on hosts with >= 4 cores (waived, but still measured,
# elsewhere).  Throughput per worker count lands in BENCH_datapath.json.
CKPT_DATAPATH_SMOKE=1 BENCH_DATAPATH_JSON="$PWD/BENCH_datapath.json" \
  cargo bench -q -p bench --bench ckpt_datapath

# Journal smoke: the append-overhead ratchet (the bench asserts the
# journaled record cost stays under 40 µs/event and 1 KiB/event, writing
# BENCH_journal.json), then cr-replay over the real 4-rank early-release
# run the bench leaves behind: the hash chain must verify end-to-end and
# the event sequence must replay as reachable in the commit protocol
# model.
journal_smoke_dir="$PWD/target/journal_smoke"
JOURNAL_SMOKE=1 JOURNAL_SMOKE_DIR="$journal_smoke_dir" \
  BENCH_JOURNAL_JSON="$PWD/BENCH_journal.json" \
  cargo bench -q -p bench --bench journal_append
run_journal="$journal_smoke_dir/run/journal/ft.jrnl"
cargo run --release -q -p tools --bin cr-replay -- verify "$run_journal"
cargo run --release -q -p tools --bin cr-replay -- replay --model commit "$run_journal"

# Ratchet: the cr-lint baseline may shrink but never grow.  The limits
# live in lint.allow itself, one "# ratchet: RULE files=NN sites=NN"
# header per baselined rule, so tightening the baseline is a one-file
# change.  A rule with rows but no header fails.
for rule in $(grep -v '^#' lint.allow | cut -f1 | sort -u); do
  limits=$(sed -n "s/^# ratchet: $rule files=\([0-9]*\) sites=\([0-9]*\)$/\1 \2/p" lint.allow)
  if [ -z "$limits" ]; then
    echo "lint.allow has $rule rows but no '# ratchet: $rule files=NN sites=NN' header" >&2
    exit 1
  fi
  read -r ratchet_files ratchet_sites <<<"$limits"
  baseline_lines=$(grep -c "^$rule"$'\t' lint.allow)
  baseline_sites=$(awk -F'\t' -v r="$rule" '$1 == r {s+=$3} END {print s+0}' lint.allow)
  if [ "$baseline_lines" -gt "$ratchet_files" ] || [ "$baseline_sites" -gt "$ratchet_sites" ]; then
    echo "lint.allow $rule grew (files=$baseline_lines > $ratchet_files or sites=$baseline_sites > $ratchet_sites)" >&2
    exit 1
  fi
done

# Superseded entry points are deleted, not kept behind an attribute.
if grep -rnE '#\[deprecated|allow\(deprecated\)' crates src tests examples; then exit 1; fi
# Only oob.rs may encode, decode or address an OOB message.
if grep -rnE 'send_oob|recv_oob|TAG_OOB' crates --include=*.rs | grep -v crates/orte/src/oob.rs; then exit 1; fi
# Every file of a snapshot reference and of the chunk store is replaced
# whole by cr_core::snapshot::replace_file (temp + rename): no other write
# call in the non-test code of these two files, and the global reference
# keeps its five writers (no record_* setter that rewrites it on its own).
for f in crates/core/src/snapshot.rs crates/opal/src/store.rs; do
  if awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit}
                    /^pub fn replace_file/ {helper=1}
                    !helper {print f":"FNR": "$0}
                    helper && /^}/ {helper=0}' "$f" | grep -E 'fs::write|File::create'; then
    exit 1
  fi
done
if grep -n 'fn record_' crates/core/src/snapshot.rs; then exit 1; fi
# Only the CRS decodes a local snapshot's context into a whole image: the
# dedup commit reads packs and never reads back or re-digests an image.
if grep -rn 'read_full_image' crates src tests examples --include=*.rs |
  grep -v '^crates/opal/src/crs.rs:'; then exit 1; fi
# One component per capability: the PML keeps one sender-side log (the
# `Vec<LoggedSend>` inside ompi::crcp::msglog::MsgLog), and the second log
# with its handshake, the daemon-less SNAPC and the unused launcher stay
# deleted.
logs=$(grep -rn 'Vec<LoggedSend>' crates/ompi/src --include=*.rs || true)
if [ "$(printf '%s\n' "$logs" | grep -c .)" -ne 1 ] ||
  ! awk '/^pub struct MsgLog/,/^}/' crates/ompi/src/crcp/msglog.rs | grep -q 'Vec<LoggedSend>'; then
  printf 'crates/ompi/src must hold exactly one Vec<LoggedSend>, in MsgLog:\n%s\n' "$logs" >&2
  exit 1
fi
if grep -rnE 'sender_log|CrcpMsg::Have|LoggerCrcp|DirectSnapc|SlurmSimPlm' crates src tests examples; then
  exit 1
fi
# One replay, run by the recovery: a partial restart re-points every
# survivor and queues its logged backlog itself before the restarted rank
# runs, so no replay handshake message, rejoin wait, CRCP trim hook or
# log-gap probe comes back into the non-test code of any crate.
while IFS= read -r f; do
  if awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f":"FNR": "$0}' "$f" |
    grep -E 'ReplayBegin|ReplayDone|rejoin_replay|trim_for_replay|crcp\.msglog\.gap'; then
    exit 1
  fi
done < <(find crates/*/src -name '*.rs' | sort)
# One fetch batch per recovery: a restart fetches the chunks of all its
# dedup images with one SnapshotStore::fetch_images call, never a per-rank
# fetch_image loop.
if grep -rn '\.fetch_image(' crates/ompi/src; then exit 1; fi
# One explicit wire format: every type states its encoding through
# codec::Wire, so no serialization framework, derive or ByteBuf remains.
if grep -rnE 'serde|Serialize|Deserialize|ByteBuf' crates src tests examples \
  $(find . -name Cargo.toml -not -path '*/target/*'); then exit 1; fi
if compgen -G 'shims/serde*' > /dev/null; then
  echo "shims/serde* is back; the wire format is codec::Wire" >&2
  exit 1
fi
# One copy per large message: a large frame's payload and every message-log
# entry are views of the wire buffer, so the non-test code of the frame
# codec and of the CRCP never copies a payload into a Vec.
for f in crates/ompi/src/frame.rs crates/ompi/src/crcp.rs crates/ompi/src/crcp/*.rs; do
  if awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f":"FNR": "$0}' "$f" | grep -F 'to_vec()'; then
    exit 1
  fi
done
# One channel, std's: endpoints and reply slots are std::sync::mpsc, and
# the fabric counts two job-wide totals and nothing per endpoint.
if grep -rnE 'crossbeam|EndpointStats|note_received|reset_stats' crates src tests examples \
  $(find . -name Cargo.toml -not -path '*/target/*'); then exit 1; fi
if [ -e shims/crossbeam ]; then
  echo "shims/crossbeam is back; channels are std::sync::mpsc" >&2
  exit 1
fi
# One CRCP round, no deadline, and one wait: every coordination or PML
# wait spins briefly and then parks on the endpoint until a delivery (a
# message, a death notice or a wake) arrives, so the non-test code of the
# CRCP and the PML reads no wall-clock deadline and polls on no timer.
for f in crates/ompi/src/crcp.rs crates/ompi/src/crcp/*.rs crates/ompi/src/pml.rs; do
  if awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f":"FNR": "$0}' "$f" |
    grep -E 'COORD_TIMEOUT|Instant::now\(\) \+|recv_timeout|WIRE_POLL|const POLL\b'; then
    exit 1
  fi
done
# One read per restored image: restart decodes each local snapshot where it
# lives (stable storage or peer memory), so no non-test code builds a
# node-local restart scratch path or writes a replica image back to disk.
for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
  if awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f":"FNR": "$0}' "$f" |
    grep -E '\.join\("restart"\)|write_to\('; then
    exit 1
  fi
done
# One parallel executor: a gather or drain is one pass of the shared pool
# (orte::filem::copy_batch over opal::pool::map_claimed), so the wave
# scheduler stays deleted and no non-test code outside the pool starts
# scoped threads.
if grep -rnE 'orte::sched|copy_all_scheduled|GatherPlan|GatherSchedStats|filem\.sched\.plan' \
  crates src tests examples; then exit 1; fi
while IFS= read -r f; do
  if awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f":"FNR": "$0}' "$f" |
    grep -E 'thread::scope\(' | grep -v '^crates/opal/src/pool\.rs:'; then
    exit 1
  fi
done < <(find crates/*/src crates/*/benches src examples -name '*.rs' | sort)
# cr-model runs the shipped machines: no hand-written commit lattice,
# partial-restart cursor model or replica ring stays in crates/model/src.
if grep -rnE 'enum Commit\b|enum FState|fn ring_successors' crates/model/src; then exit 1; fi
# One clock: the interconnect is a transport, not a cost model.  No
# non-test code meters, prices or plans by simulated time, and SimTime
# appears only in netsim and in orte::replica::fetch_image's return (one
# of the two prices benchmark/ reads; the other, CkptStats::sim_ns, is a
# plain u64).
while IFS= read -r f; do
  nontest=$(awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f":"FNR": "$0}' "$f")
  if grep -E 'LinkMeter|LinkSlot|NetView|contended_cost|plan_fifo|simulated_critical_path|RSH_SESSION|launch_cost|wire_time|serialized_cost|critical_path_cost|sim_cost' <<<"$nontest"; then
    exit 1
  fi
  case "$f" in crates/netsim/src/*) continue ;; esac
  if grep -F 'SimTime' <<<"$nontest" |
    grep -vE '^crates/orte/src/replica\.rs:[0-9]+: (use netsim::\{NodeId, SimTime\};|\) -> Option<\(ReplicaImage, SimTime\)> \{)$'; then
    exit 1
  fi
done < <(find crates/*/src -name '*.rs' | sort)
