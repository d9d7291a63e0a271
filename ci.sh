#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full workspace test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The number of `simlint: allow` escapes is pinned like the benchmark
# digests below: a change that adds an escape (or removes one) updates
# this value and says why in CHANGES.md.
simlint_allowed=21

echo "== simlint (determinism & protocol-purity invariants, $simlint_allowed allowed escapes)"
simlint_out="target/simlint.txt"
cargo run -q -p simlint -- check | tee "$simlint_out"
got="$(sed -n 's/^simlint: .* violation(s), \([0-9]*\) allowed$/\1/p' "$simlint_out")"
if [[ "$got" != "$simlint_allowed" ]]; then
  echo "ci.sh: simlint reports ${got:-no} allowed escapes, ci.sh pins $simlint_allowed" >&2
  sed -n '/^rule /,/^$/p' "$simlint_out" >&2
  exit 1
fi

echo "== cargo doc (deny warnings + broken intra-doc links)"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --quiet

echo "== cargo test"
cargo test -q --workspace

# The debug_assert! guards compile out of the release builds that produce
# every BENCH number, so the serving suites (recovery, re-issue and
# subscription paths included) also run in release (~15 s on 2 cores).
echo "== cargo test --release -p elink-workload (serving suites without debug assertions)"
cargo test --release -q -p elink-workload

# The scheduler's arena, cancellation and run-count invariants, the growth
# protocol's, the model checker's and ARQ's end-of-queue check are
# debug_assert!s too, the routing table's port rows (both widths; the wave
# build across several passes of 128 waves, its pass boundary included)
# and the flat adjacency are checked against their oracles,
# `Backbone::build` and the range and path query tests read routes
# through the port rows, the 16-byte `Feature` layout and its
# copy-on-write, and the spanning-forest baseline, the other protocol that
# floods through broadcast runs, run in the profile that builds every
# BENCH number (~50 s build on 2 cores).
echo "== cargo test --release -p elink-netsim -p elink-core -p elink-mc -p elink-topology -p elink-metric -p elink-query -p elink-baselines (without debug assertions; multi-pass routing oracle)"
cargo test --release -q -p elink-netsim -p elink-core -p elink-mc -p elink-topology -p elink-metric -p elink-query -p elink-baselines

# The --check smokes below need release binaries: debug builds are ~10x
# slower and `cargo run --release -q` would silently rebuild half the
# workspace with no indication of why CI stalled. Build once, loudly, then
# invoke the produced binaries directly — and fail with a pointed message
# if one is missing rather than letting cargo's bin resolution guess.
echo "== cargo build --release -p elink-experiments (report bins for the --check smokes)"
cargo build --release -q -p elink-experiments

run_bench_bin() {
  local bin="$1"
  shift
  if [[ ! -x "target/release/$bin" ]]; then
    echo "ci.sh: target/release/$bin not found — the report bins must be built before the --check smokes." >&2
    echo "       Build it with: cargo build --release -p elink-experiments --bin $bin" >&2
    exit 1
  fi
  "target/release/$bin" "$@"
}

echo "== bench_report --check (deterministic bench harness smoke)"
run_bench_bin bench_report --check --out target/BENCH_elink.json

echo "== workload_report --check (serving-layer SLO smoke)"
run_bench_bin workload_report --check --out target/BENCH_workload.json

echo "== chaos_report --check (fault-campaign soundness + determinism smoke)"
run_bench_bin chaos_report --check --out target/BENCH_chaos.json

echo "== contention_report --check (queueing-knee + flow-model determinism smoke)"
run_bench_bin contention_report --check --out target/BENCH_contention.json

echo "== admission_report --check (load-admission A/B knee + determinism smoke)"
run_bench_bin admission_report --check --out target/BENCH_admission.json

echo "== scale_report --check (1k-64k O(N) scaling sweep + determinism smoke)"
run_bench_bin scale_report --check --out target/BENCH_scale.json

echo "== mc_report --check (exhaustive model-checking gate on the small-topology suite)"
run_bench_bin mc_report --check --out target/BENCH_mc.json

echo "== sub_report --check (standing-query push-vs-requery smoke)"
run_bench_bin sub_report --check --out target/BENCH_sub.json

# The committed reports are the reference outputs: a regenerated one that
# differs is a behaviour change to explain and commit, not noise.
echo "== committed BENCH_* reports (byte-identical regeneration)"
for name in elink workload chaos contention admission scale mc sub; do
  if ! cmp -s "target/BENCH_$name.json" "BENCH_$name.json"; then
    echo "ci.sh: target/BENCH_$name.json differs from the committed BENCH_$name.json" >&2
    exit 1
  fi
done

echo "== benchmark tests (the standalone benchmark package)"
cargo test --offline --manifest-path benchmark/Cargo.toml

# `run --check` compares two processes with each other; the digests it
# prints are also pinned here, so a change that claims byte-identical
# behaviour is checked against the committed values. A change that moves a
# digest on purpose updates this list and says why in CHANGES.md.
expected_digest() {
  case "$1 $2" in
    "42 growth-64k") echo 88ee5d248e0b89ab ;;
    "42 serve-contended") echo d9943b45db341928 ;;
    "42 serve-lossy") echo 7ce5608f87f55d23 ;;
    "42 churn-mixed") echo e49835f18500c265 ;;
    "7 growth-64k") echo 46cc782e3a7fa202 ;;
    "7 serve-contended") echo 6f24d779193be983 ;;
    "7 serve-lossy") echo 4256acd179990553 ;;
    "7 churn-mixed") echo 04050502b20d32d4 ;;
  esac
}

for seed in 42 7; do
  echo "== benchmark run --check --seed $seed (determinism + pinned digests, ~40 s on 2 cores)"
  out="target/benchmark_check_seed$seed.txt"
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --check --seed "$seed" | tee "$out"
  for workload in growth-64k serve-contended serve-lossy churn-mixed; do
    want="$(expected_digest "$seed" "$workload")"
    got="$(awk -v w="$workload" '$1 == w && $2 == "digest" { print $3 }' "$out")"
    if [[ "$got" != "$want" ]]; then
      echo "ci.sh: benchmark digest of $workload at seed $seed is '${got:-missing}', expected $want" >&2
      exit 1
    fi
  done
done

echo "ci.sh: all green"
