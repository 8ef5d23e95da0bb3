#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> seqpat-lint (lexical + effect-inference + determinism rules; fails on deny severity)"
mkdir -p target/ci-results
# Emit all report formats before gating so the artifacts exist even when
# the lint fails; the exit code is nonzero iff a deny-severity rule fired
# (warn-severity findings are recorded but do not break the build). The
# json run also writes the per-fn inferred-effect table and the
# determinism audit (every parallel fan-out site with its capture
# verdicts, every chunk-merge reducer with its order-sensitivity
# verdict) — deny rules like no-io-in-kernels and
# shared-mutable-capture-in-parallel are queries against these tables,
# so the artifacts are the audit trail for why the gate passed.
lint_status=0
cargo run -q -p seqpat-lint -- --format json \
  --effects-out target/ci-results/effects.json \
  --determinism-out target/ci-results/determinism.json \
  > target/ci-results/lint.json || lint_status=$?
cargo run -q -p seqpat-lint -- --format sarif > target/ci-results/lint.sarif || lint_status=$?
[ -s target/ci-results/effects.json ] || {
  echo "seqpat-lint: effects.json missing or empty" >&2; exit 1;
}
[ -s target/ci-results/determinism.json ] || {
  echo "seqpat-lint: determinism.json missing or empty" >&2; exit 1;
}
if [ "$lint_status" -ne 0 ]; then
  echo "seqpat-lint: deny-severity violations (see target/ci-results/lint.json)" >&2
  exit "$lint_status"
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> e2ebench build + tests (separate package, path deps on the crates)"
# The end-to-end benchmark is its own package (empty [workspace]), so the
# workspace build above never compiles it; it calls public counting and
# I/O functions, and this step catches an API break there before the
# benchmark driver does. Same target dir as e2ebench/run.py.
CARGO_TARGET_DIR=.bench_build cargo test --release -q --manifest-path e2ebench/Cargo.toml

echo "==> shard smoke (mmap backend, 3-customer shards and unsharded, diff vs mem backend)"
# End-to-end out-of-core check through the CLI: generate a tiny dataset,
# build its colstore, and require the sharded mmap-backend mine to print
# byte-identical output to the in-memory mine.
smoke=target/ci-results/shard-smoke
mkdir -p "$smoke"
cargo run --release -q -p seqpat-cli -- gen \
  --out "$smoke/tiny.spmf" --customers 40 --seed 11
cargo run --release -q -p seqpat-cli -- convert \
  --in "$smoke/tiny.spmf" --out "$smoke/tiny.colstore" --minsup 0.05
cargo run --release -q -p seqpat-cli -- mine \
  --in "$smoke/tiny.spmf" --minsup 0.05 --max-length 4 \
  > "$smoke/mem.txt" 2> /dev/null
cargo run --release -q -p seqpat-cli -- mine \
  --in "$smoke/tiny.colstore" --minsup 0.05 --max-length 4 \
  --backend mmap --shard-customers 3 \
  > "$smoke/mmap.txt" 2> /dev/null
# Guard against a vacuous pass: an empty pattern list would diff clean.
[ -s "$smoke/mem.txt" ] || { echo "shard smoke: no patterns mined" >&2; exit 1; }
diff "$smoke/mem.txt" "$smoke/mmap.txt"
# Unsharded over the store: Auto's scan, pass 2 and the later passes must
# all read one decoded copy of the table, so --stats reports one load.
cargo run --release -q -p seqpat-cli -- mine \
  --in "$smoke/tiny.colstore" --minsup 0.05 --max-length 4 \
  --backend mmap --strategy auto --stats \
  > "$smoke/mmap-whole.txt" 2> "$smoke/mmap-whole.stats"
diff "$smoke/mem.txt" "$smoke/mmap-whole.txt"
grep -q "shards: 1 processed" "$smoke/mmap-whole.stats" || {
  echo "shard smoke: unsharded mmap mine did not decode the table exactly once" >&2
  cat "$smoke/mmap-whole.stats" >&2
  exit 1
}
echo "shard smoke: mem and mmap outputs identical ($(wc -l < "$smoke/mem.txt") patterns)"

echo "==> serve smoke (gen → mine → index → query, trie vs oracle diff)"
# End-to-end serving check through the CLI: mine an index, sample a query
# workload from it, and require the trie's answers to be byte-identical to
# the linear-scan oracle's over the same file (plus one fixed guaranteed
# miss). Fails loud on an empty index or a hit-free workload — either
# would make the diff vacuous.
ssmoke=target/ci-results/serve-smoke
mkdir -p "$ssmoke"
cargo run --release -q -p seqpat-cli -- gen \
  --out "$ssmoke/data.spmf" --customers 40 --seed 11
cargo run --release -q -p seqpat-cli -- mine \
  --in "$ssmoke/data.spmf" --minsup 0.05 --max-length 4 \
  --index-out "$ssmoke/idx.seqpats" > "$ssmoke/patterns.txt" 2> /dev/null
[ -s "$ssmoke/patterns.txt" ] || { echo "serve smoke: no patterns mined" >&2; exit 1; }
cargo run --release -q -p seqpat-cli -- queries \
  --index "$ssmoke/idx.seqpats" --out "$ssmoke/q.txt" --count 200 --seed 5
[ -s "$ssmoke/q.txt" ] || { echo "serve smoke: empty index produced no queries" >&2; exit 1; }
printf '? -1 -2\n' >> "$ssmoke/q.txt"
cargo run --release -q -p seqpat-cli -- query \
  --index "$ssmoke/idx.seqpats" --queries "$ssmoke/q.txt" --k 5 > "$ssmoke/trie.txt"
cargo run --release -q -p seqpat-cli -- query \
  --index "$ssmoke/idx.seqpats" --queries "$ssmoke/q.txt" --k 5 --oracle > "$ssmoke/oracle.txt"
diff "$ssmoke/trie.txt" "$ssmoke/oracle.txt"
hits=$(grep -cv ' => -$' "$ssmoke/trie.txt" || true)
[ "$hits" -gt 0 ] || { echo "serve smoke: workload produced zero hits" >&2; exit 1; }
cargo run --release -q -p seqpat-cli -- serve \
  --index "$ssmoke/idx.seqpats" --queries "$ssmoke/q.txt" --threads 2 --repeat 5
echo "serve smoke: trie and oracle answers identical ($hits hit lines)"

echo "==> equivalence suites with debug assertions in release"
# The kernels' debug_assert!s mirror the lint contract (CSR monotonicity,
# word-span consistency, arena run boundaries); exercise them against the
# optimized code paths. A separate target dir keeps the cache warm.
CARGO_TARGET_DIR=target/ci-debug-assert RUSTFLAGS="-C debug-assertions" \
  cargo test --release -q -p seqpat-core -p seqpat-itemset

echo "==> bench smoke (one tiny ablation cell for all four strategies + auto)"
cargo run --release -p seqpat-bench --bin exp_ablation -- \
  --quick --customers 150 --out target/ci-results

echo "==> bench smoke (bitmap crossover, one dense + one sparse cell)"
cargo run --release -p seqpat-bench --bin exp_bitmap -- \
  --quick --customers 150 --out target/ci-results

echo "==> kernels bench smoke (one fast cell per kernel family, JSON report)"
# Substring filters keep this under the wall-time budget: one cell each for
# the bitmap lanes, the vertical join (incl. the galloping cell), and the
# hash-tree probe. The JSON lands next to the other CI artifacts so
# bench_compare can diff it against the committed baseline.
# Absolute path: cargo runs bench binaries from the package dir, not the
# workspace root.
cargo bench -p seqpat-bench --bench kernels -- \
  --json "$PWD/target/ci-results/bench_kernels.json" \
  bitmap_lanes vertical_count sequence_hash_tree/probe

echo "==> kernel regression gate (skip with BENCH_COMPARE_SKIP=1)"
# Shared CI boxes are noisy; the threshold is generous and the gate only
# compares labels present in both files.
./scripts/bench_compare.sh target/ci-results/bench_kernels.json

echo "==> snapshot kernel bench report (perf trajectory)"
# Top-level BENCH_kernels.json is committed each PR so git history records
# the kernel-performance trajectory across the stack (results/ keeps the
# regression-gate baseline; this file is the per-PR measurement).
cp target/ci-results/bench_kernels.json BENCH_kernels.json

echo "==> serve bench (index build + per-lookup latency at two sizes, JSON report)"
# The full serve bench is cheap enough to run unfiltered; the lookup cells
# use one query per sample so the JSON's p50/p99 are per-lookup latencies.
cargo bench -p seqpat-bench --bench serve -- \
  --json "$PWD/target/ci-results/bench_serve.json"

echo "==> serve regression gate (same knobs: BENCH_COMPARE_SKIP / BENCH_COMPARE_THRESHOLD)"
./scripts/bench_compare.sh target/ci-results/bench_serve.json results/bench_serve.json

echo "==> snapshot serve bench report (perf trajectory)"
cp target/ci-results/bench_serve.json BENCH_serve.json

echo "==> CI green"
