#!/usr/bin/env bash
# The single CI gate for the RevTerm workspace. The GitHub workflow runs
# exactly this script, so a green local run means a green CI run.
#
# Usage:
#   scripts/ci.sh            # full gate: fmt + clippy + build + test + bench smoke
#   scripts/ci.sh --no-bench # skip the bench smoke (e.g. on very slow machines)
#
# The workspace has zero external crates by design; CARGO_NET_OFFLINE makes
# any accidental dependency addition fail loudly instead of hitting the
# network.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

run_bench_smoke=true
for arg in "$@"; do
    case "$arg" in
        --no-bench) run_bench_smoke=false ;;
        *)
            echo "unknown argument: $arg" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Docs gate: rustdoc must be warning-free (this catches broken intra-doc
# links workspace-wide, which plain builds do not).
echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

# The dev profile keeps debug-assertions on (opt-level is raised but
# debug_assert! stays live), so this run exercises the canonical-form
# invariant checks in Poly/LinExpr and the eta-file pivot assertions —
# release builds compile them out.
echo "==> cargo test -q"
cargo test -q

if $run_bench_smoke; then
    # Bench smoke: one cheap benchmark through the session-vs-fresh harness
    # (~1 s) so every CI run leaves a comparable speedup/verdict JSON
    # artifact. The harness exits non-zero if verdicts diverge.
    echo "==> bench smoke (session_vs_fresh nt_counter_up)"
    mkdir -p target/ci-artifacts
    cargo run --release -q -p revterm-bench --bin session_vs_fresh nt_counter_up \
        | tee target/ci-artifacts/bench-smoke.json

    # LP-engine + poly-kernel smoke: num_profile with a small microloop runs
    # the LP engine and its dense reference tableau over the same problems,
    # the flat polynomial kernels against a BTreeMap reference, the
    # packed-monomial cache-key hashing loop under a counting allocator, and
    # the degree-1 sweep. It exits non-zero on any digest divergence or any
    # heap allocation on the packed hashing path — the LP-engine and
    # packed-monomial acceptance criteria, re-proved on every CI run.
    # It also runs the degree-1 sweep with the absint pre-analysis ON and
    # OFF and fails on verdict-digest divergence, on zero absint engagement
    # (no fast paths and no prunes taken), or on any absint path taken while
    # the pre-analysis is disabled.
    echo "==> bench smoke (num_profile 30)"
    cargo run --release -q -p revterm-bench --bin num_profile 30 \
        | tee target/ci-artifacts/num-profile.json

    # Serve smoke: an in-process revterm-serve daemon on an ephemeral port,
    # driven through the wire client. Proves the service contract on every
    # CI run: daemon verdicts digest-identical to in-process runs, repeated
    # requests served by pooled warm sessions (fails on zero pool hits), a
    # zero deadline degrading to a structured timeout with the daemon still
    # healthy, and sweep/analyze/metrics/shutdown flowing over the protocol.
    # Leaves a JSON latency artifact next to the other smoke outputs.
    echo "==> serve smoke (serve_smoke)"
    cargo run --release -q -p revterm-bench --bin serve_smoke \
        | tee target/ci-artifacts/serve-smoke.json

    # Fuzz smoke: a fixed-seed batch of 500 generated labelled programs,
    # each cross-checked by the four-oracle differential harness (baseline
    # claim table, certificate re-validation, absint on/off digests, and a
    # sample of the run's own multiplier LPs re-solved by the LP engine and
    # the dense reference). Exits non-zero on any verdict mismatch,
    # validation failure, digest or LP divergence, or if either known-label family is
    # missing from the batch — failing programs are auto-minimized by the
    # shrinker and embedded in the JSON artifact.
    echo "==> fuzz smoke (fuzz_drive 500)"
    cargo run --release -q -p revterm-bench --bin fuzz_drive 500 \
        | tee target/ci-artifacts/fuzz-smoke.json
fi

echo "==> CI gate passed"
