#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting. Run before every commit.
#
# `bash ci.sh gates` runs only the determinism gates (the table at the
# bottom) and prints every tag line they compare, so two checkouts, each
# with its own target dir, compare as one `diff` of their outputs.
#
# `bash ci.sh lines` builds nothing: it prints the non-test code lines of
# each system crate (`crates/*/src` but the claims crate `bench`, and the
# umbrella `src`) and their total — every `.rs` file up to its first
# `#[cfg(test)]`, blank lines and `//` comment lines left out.
set -euo pipefail
cd "$(dirname "$0")"

case "${1:-}" in
  '') gates_only="" ;;
  gates) gates_only=1 ;;
  lines)
    total=0
    for dir in crates/*/src src; do
      [ "$dir" = crates/bench/src ] && continue
      n=$(find "$dir" -name '*.rs' | sort | xargs awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
      name=${dir%/src}
      printf '%-12s %6d\n' "${name#crates/}" "$n"
      total=$((total + n))
    done
    printf '%-12s %6d\n' total "$total"
    exit 0
    ;;
  *) echo "usage: bash ci.sh [gates|lines]" >&2; exit 2 ;;
esac

if [ -z "$gates_only" ]; then
  cargo build --release
  # every example runs to completion: the examples are the first runtime
  # surface, and clippy below only compiles them
  for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
  done
  # --workspace: at the root a bare `cargo test` runs only the umbrella package.
  # Eight test threads: this guest has 2 vCPUs, and the default of 2 hides
  # the interleavings a test that shares state with a sibling would fail on
  RUST_TEST_THREADS=8 cargo test -q --workspace
  # the allocation budgets hold in the build the benchmark measures too
  cargo test --release -q --test alloc_budget
  # and the property tests (about 5 s): the multi-block and NaN cases hold
  # where debug assertions are gone and arithmetic wraps
  cargo test --release -q --test properties
  # and random tumbling, sliding, session and dedup chains against the oracle,
  # across a checkpoint stop and a restore at another parallelism, in the
  # build whose window state the benchmark measures
  cargo test --release -q --test compute_ownership
  # and the decoder corpus: the wire reader's bounds arithmetic holds where
  # it would wrap, not only where an overflow panics
  cargo test --release -q --test decoder_robustness
  # fault injection is a handle its owner hands down, never process state
  # (an `if`, not `! grep`: `set -e` ignores a status inverted with `!`)
  if grep -n '^\(pub \)\?static' crates/common/src/chaos.rs; then
    echo "process-global fault state in chaos.rs" >&2
    exit 1
  fi
  # the repo benchmark (BENCHMARK.json) is a workspace of its own: its smoke
  # runs all four workloads for one round at 1/20 size with every oracle
  # check, so a break in the API or the answers it sees fails here
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
  # and its own unit tests (generator determinism, percentiles, the oracle's
  # tie rule, span self-time): `--workspace` above does not reach them
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
  # those two builds re-resolve the tracked benchmark/Cargo.lock: put it back,
  # then nothing under the benchmark's paths may differ from the commit — a
  # change that claims a gain cannot carry an edit to what measures it
  git checkout -- benchmark/Cargo.lock
  if [ -n "$(git status --porcelain -- benchmark BENCHMARK.json)" ]; then
    echo "uncommitted changes under the benchmark's paths:" >&2
    git status --porcelain -- benchmark BENCHMARK.json >&2
    exit 1
  fi
  # also the gate of every crate's deny of clippy::unwrap_used and
  # clippy::expect_used outside tests (ROADMAP item 4); `--all-targets`
  # lints the tests and examples too
  cargo clippy --workspace --all-targets -- -D warnings
  cargo fmt --check
  # every intra-doc link resolves, and to an item as public as its page
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
fi

# Determinism gates: each row names a seeded test that prints summary lines
# under a tag; for every seed the lines must be byte-identical between two
# separate processes. Columns: env var, test file, test name, tag, seeds...
while read -r var file test tag seeds; do
  case "$var" in '' | '#'*) continue ;; esac
  for seed in $seeds; do
    run_gate() {
      # stdin is the gate table below: keep the test process off it
      env "$var=$seed" cargo test -q --test "$file" "$test" -- --nocapture \
        </dev/null | grep "^$tag"
    }
    a="$(run_gate)"
    b="$(run_gate)"
    if [ "$a" != "$b" ]; then
      echo "$tag diverged between two runs of seed $seed" >&2
      diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
      exit 1
    fi
    echo "$tag deterministic for seed $seed ($(printf '%s\n' "$a" | wc -l) lines)"
    if [ -n "$gates_only" ]; then
      printf '%s\n' "$a"
    fi
  done
done <<'GATES'
# chaos: the soak's recorded fault schedule
RTDI_CHAOS_SEED chaos_soak soak_env_seed_prints_schedule CHAOS_SUMMARY 0xA11CE 0xB0B5EED 0xC4A05C4
# fused dataflow: the micro-batched + operator-chained runtime must digest
# identically to the per-record oracle (asserted in-test)
RTDI_FUSE_SEED fused_determinism fuse_env_seed_prints_digests FUSED_SUMMARY 0xF05E 0xC0FFEE42
# node kill: failover and rebalance event logs
RTDI_NODEKILL_SEED node_failover node_kill_env_seed_prints_failover_log NODEKILL_SUMMARY 0xFA110 0xDEAD5EED
# decoder robustness: a seeded corpus of truncated and bit-flipped segment
# files and checkpoint frames (raw logs, operator snapshots, the key-group
# envelope, a persisted checkpoint object) through every decode entry
# point; any panic fails
RTDI_FUZZ_SEED decoder_robustness fuzz_env_seed_prints_summary DECODER_SUMMARY 0xDEC0DE 0xBADF11E5
# federation cache: digests of an uncached and a cached execution of the same
# federated query stream (byte-equal in-test) plus a post-seal digest after a
# cache-invalidating segment push
RTDI_FED_SEED federation fed_env_seed_prints_summary FED_SUMMARY 0xFED2021 0xCAC4E5EED
# overload: per-phase offered/accepted/shed at the producer edge and the
# proxy, the admission ledger, and the deadline-bounded query's shed counts
RTDI_OVERLOAD_SEED overload_soak soak_env_seed_prints_summary OVERLOAD_SUMMARY 0x0FFE12ED 0x5A70FFE
# region DR: per-cycle detection latency, per-layer RTO, replay duplicates,
# lag at heal and catch-up time, plus the RPO/convergence totals
RTDI_DR_SEED region_failover region_dr_env_seed_prints_summary DR_SUMMARY 0xD12A57E2 0x5EED0DDA
# parallel compute: record count plus the serial, sharded and salted plan
# digests (equal in-test)
RTDI_PARALLEL_SEED parallel_compute parallel_env_seed_prints_summary PARALLEL_SUMMARY 0xA11E1 0x5A17ED
GATES
