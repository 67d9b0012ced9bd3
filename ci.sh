#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting. Run before every commit.
#
# `bash ci.sh gates` runs only the determinism gates (the table at the
# bottom) and prints every tag line they compare, so two checkouts, each
# with its own target dir, compare as one `diff` of their outputs.
# `bash ci.sh gates <commit>` is that comparison: it runs this table on the
# commit's files (`git archive` into `$TMPDIR/rtdi-gates-<commit>`, built
# in a target dir of their own) and on the working tree, prints the `diff`
# of the two outputs and exits 1 when they differ.
#
# `bash ci.sh lines` builds nothing: it prints the non-test code lines of
# each system crate (`crates/*/src` but the claims crate `bench`, and the
# umbrella `src`) and their total — every `.rs` file up to its first
# `#[cfg(test)]`, blank lines and `//` comment lines left out.
#
# `bash ci.sh pair <parent> <change> [workload...]` compares the repo
# benchmark of two commits: it builds each commit's benchmark binary under
# two lenses, the default build and one whose functions all start on a
# 64-byte boundary (`-C llvm-args=-align-all-functions=6`, so a shift that
# only code placement causes shows in one lens and not the other), runs
# the two binaries alternately, and prints per metric the change's median,
# the parent's median and quartiles, and the pairs each side won. Every
# workload of BENCHMARK.json when none is named. Knobs: PAIR_COUNT (10),
# PAIR_SECONDS (20), PAIR_SEED (43), PAIR_TRACE (0; 1 prints the per-layer
# metrics), PAIR_DIR (builds and raw runs, `$TMPDIR/rtdi-pair`). It changes
# nothing in this checkout.
set -euo pipefail
cd "$(dirname "$0")"

case "${1:-}" in
  '') gates_only="" ;;
  gates)
    gates_only=1
    if [ -n "${2:-}" ]; then
      commit=$(git rev-parse --verify "$2^{commit}")
      dir=${TMPDIR:-/tmp}/rtdi-gates-${commit:0:12}
      if [ ! -d "$dir/src" ]; then
        mkdir -p "$dir/src"
        git archive "$commit" | tar -x -C "$dir/src"
      fi
      # this table, not the commit's, on the commit's files
      cp ci.sh "$dir/src/ci.sh"
      (cd "$dir/src" && env -u CARGO_TARGET_DIR bash ci.sh gates) >"$dir/commit.out"
      bash ci.sh gates >"$dir/tree.out"
      if diff "$dir/commit.out" "$dir/tree.out"; then
        echo "every gate line of the working tree equals ${commit:0:12}'s"
        exit 0
      fi
      exit 1
    fi
    ;;
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
  pair)
    [ $# -ge 3 ] || { echo "usage: bash ci.sh pair <parent> <change> [workload...]" >&2; exit 2; }
    parent=$(git rev-parse --verify "$2^{commit}")
    change=$(git rev-parse --verify "$3^{commit}")
    shift 3
    workloads=${*:-$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)}
    pairs=${PAIR_COUNT:-10}
    seconds=${PAIR_SECONDS:-20}
    seed=${PAIR_SEED:-43}
    trace=${PAIR_TRACE:-0}
    root=${PAIR_DIR:-${TMPDIR:-/tmp}/rtdi-pair}
    mkdir -p "$root"
    # the benchmark binary of a commit under a lens, built once: the
    # committed files (`git archive`, so nothing is registered in this
    # repository), in a target dir of their own
    bench() {
      local dir="$root/${1:0:12}-$2" flags=""
      [ "$2" = aligned ] && flags="-C llvm-args=-align-all-functions=6"
      if [ ! -x "$dir/rtdi-benchmark" ]; then
        rm -rf "$dir"
        mkdir -p "$dir/src"
        git archive "$1" | tar -x -C "$dir/src"
        (cd "$dir/src" && env -u CARGO_TARGET_DIR RUSTFLAGS="$flags" \
          cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml) >&2
        cp "$dir/src/benchmark/target/release/rtdi-benchmark" "$dir/rtdi-benchmark"
      fi
      echo "$dir/rtdi-benchmark"
    }
    # `<metric> <better>` for every metric BENCHMARK.json declares
    sed -n 's/.*"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)".*/\1 \2/p' \
      BENCHMARK.json >"$root/better"
    for lens in aligned default; do
      bench "$parent" "$lens" >/dev/null
      bench "$change" "$lens" >/dev/null
    done
    for lens in aligned default; do
      for w in $workloads; do
        runs="$root/runs-${parent:0:12}-${change:0:12}-$lens-$w-trace$trace"
        : >"$runs"
        for i in $(seq 1 "$pairs"); do
          # which side runs first alternates, so a drift of the host over
          # the session weighs on both
          order="parent change"
          [ $((i % 2)) -eq 0 ] && order="change parent"
          for side in $order; do
            sha=$parent
            [ "$side" = change ] && sha=$change
            # a run with a failed check exits 1 and still prints its line
            line=$("$(bench "$sha" "$lens")" --workload "$w" --seed "$seed" \
              --seconds "$seconds" --trace "$trace" | tail -n 1) || true
            printf '%s\n' "$line" |
              { grep -o '"failed": [0-9]*\|"[a-z0-9_.]*": {"value": [^,]*' || true; } |
              sed 's/"\([^"]*\)": \({"value": \)\?/\1 /' |
              while read -r metric value; do echo "$i $side $metric $value"; done >>"$runs"
          done
        done
        echo "== $w, $lens lens: $pairs pairs, seed $seed, ${seconds} s, trace $trace"
        echo "   parent ${parent:0:12}, change ${change:0:12}; runs in $runs"
        awk '
          function sorted(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
              for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
          }
          # linear interpolation between the order statistics of a sorted a[1..n]
          function quantile(a, n, q,   h, lo) {
            h = (n - 1) * q + 1
            lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
          }
          # whole numbers past six digits, not an exponent
          function num(x) { return sprintf(x >= 1e5 || x <= -1e5 ? "%.0f" : "%.6g", x) }
          NR == FNR { better[$1] = $2; next }
          {
            if (!(($3) in seen)) { seen[$3] = 1; names[++m] = $3 }
            v[$3, $2, $1] = $4
            if ($1 > n) n = $1
          }
          END {
            printf "   %-36s %14s %14s %14s %14s %6s %6s\n", "metric", "change_median",
              "parent_median", "parent_q1", "parent_q3", "change", "parent"
            for (k = 1; k <= m; k++) {
              x = names[k]
              cnt = 0; live = 0; wc = 0; wp = 0
              for (i = 1; i <= n; i++) {
                if (!((x, "change", i) in v) || !((x, "parent", i) in v)) continue
                c = v[x, "change", i] + 0; p = v[x, "parent", i] + 0
                cs[++cnt] = c; ps[cnt] = p
                if (c != 0 || p != 0) live = 1
                if (c != p) {
                  lower = x == "failed" || better[x] == "lower"
                  if ((c < p) == lower) wc++; else wp++
                }
              }
              if (cnt == 0 || (!live && x != "failed")) continue
              sorted(cs, cnt); sorted(ps, cnt)
              printf "   %-36s %14s %14s %14s %14s %6d %6d\n", x, num(quantile(cs, cnt, 0.5)),
                num(quantile(ps, cnt, 0.5)), num(quantile(ps, cnt, 0.25)),
                num(quantile(ps, cnt, 0.75)), wc, wp
            }
            print "   (change/parent: the pairs each side won, by the metric'"'"'s better direction)"
          }' "$root/better" "$runs"
      done
    done
    exit 0
    ;;
  *) echo "usage: bash ci.sh [gates [commit]|lines|pair <parent> <change> [workload...]]" >&2; exit 2 ;;
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
  # and the common crate's unit tests: a string cell's inline length
  # arithmetic holds where debug assertions are gone
  cargo test --release -q -p rtdi-common
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
# parallel ingest: a six-partition backlog drained by `run_once` on every
# core; outcome, positions, each partition's segments and the digest of
# their bytes, the audit counts, query answers and upsert lookups
RTDI_INGEST_SEED properties ingest_env_seed_prints_summary INGEST_SUMMARY 0x1A6E57 0x9A2A11E1
GATES
