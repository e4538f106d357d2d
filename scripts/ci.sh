#!/usr/bin/env sh
# Full offline CI gate: build, test, lint, docs, format, fault-model golden check.
#
# `--frozen` forbids both network access and lockfile changes, proving the
# workspace builds with zero external dependencies from a cold checkout.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --frozen
cargo test -q --frozen
# The fault-injection suite runs as part of the workspace tests above, but
# gate on it explicitly so a filtered/partial test invocation can't skip it.
cargo test -q --frozen -p bpp-core --test faults
cargo clippy --all-targets --frozen -- -D warnings
# Rustdoc gate: a dangling or ambiguous intra-doc link fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --frozen

# The benchmark (perfbench/, a package of its own outside the workspace)
# calls the public experiment API; its smoke test fails the gate when a
# change to that API breaks it.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Determinism & hygiene static analysis (see DESIGN.md "Static analysis"):
# exit 1 on any unsuppressed diagnostic, exit 3 on an internal lexer
# failure. On success the human report prints the per-rule counts and
# wall-clock (--timing lands in the log only — the flag is banned from
# golden regeneration); on failure re-run without --deny so the log
# carries the full report.
cargo run --release --frozen -p bpp-lint -- --deny --timing || {
    status=$?
    echo "ci: bpp-lint --deny failed (exit $status); full report follows" >&2
    cargo run --release --frozen -p bpp-lint -- >&2 || true
    exit "$status"
}

# Golden drift guard: re-linting the committed violation corpus must
# reproduce the committed schema-v3 report byte for byte. Report-only
# mode exits 0 by design (the corpus is full of violations), so the
# pipeline status is cmp's.
cargo run --release --frozen -p bpp-lint -- --root crates/lint/fixtures --json \
    | cmp - results/lint_fixture.json \
    || { echo "ci: lint fixture report diverged from results/lint_fixture.json" >&2; exit 1; }

# --fix gates. First: the clean workspace must need zero edits (a nonzero
# count here means a committed file carries an unapplied machine fix).
cargo run --release --frozen -p bpp-lint -- --fix --json \
    | grep -q '"fixed": 0' \
    || { echo "ci: bpp-lint --fix wants to edit the committed workspace" >&2; exit 1; }

# Second: on a scratch copy of the violation corpus, --fix must converge
# in one pass — the first run applies edits, the second applies none.
# The copy cannot keep the name "fixtures": the scanner skips that
# directory name by design.
fixdir="$(mktemp -d)"
trap 'rm -rf "$fixdir"' EXIT
cp -r crates/lint/fixtures/. "$fixdir/"
first="$(cargo run --release --frozen -p bpp-lint -- --root "$fixdir" --fix --json \
    | grep -o '"fixed": [0-9]*')"
[ "$first" != '"fixed": 0' ] \
    || { echo "ci: --fix applied nothing on the violation corpus" >&2; exit 1; }
cargo run --release --frozen -p bpp-lint -- --root "$fixdir" --fix --json \
    | grep -q '"fixed": 0' \
    || { echo "ci: --fix is not idempotent on the violation corpus" >&2; exit 1; }

cargo fmt --check

# Fault-model regression: a fixed-seed loss-sweep cell must reproduce the
# committed FaultReport bit for bit.
./target/release/faults --smoke | cmp - results/fault_smoke.json \
    || { echo "ci: fault smoke report diverged from results/fault_smoke.json" >&2; exit 1; }

# Observability regression: the same fixed-seed cell with the obs layer on
# must reproduce the committed SteadyStateResult (including its "obs"
# section) bit for bit — the layer is deterministic by construction.
./target/release/obs --smoke | cmp - results/obs_smoke.json \
    || { echo "ci: obs smoke report diverged from results/obs_smoke.json" >&2; exit 1; }

# Fleet regression: a fixed-seed arena-fleet cell (million-client
# extension) must reproduce the committed SteadyStateResult (including its
# "fleet" section) bit for bit.
./target/release/fleet --smoke | cmp - results/fleet_smoke.json \
    || { echo "ci: fleet smoke report diverged from results/fleet_smoke.json" >&2; exit 1; }

# Chaos regression: a fixed-seed phased fault timeline (loss + crash +
# brownout) must reproduce the committed ChaosResult bit for bit. The run
# itself hard-fails on any request-conservation violation, so this line is
# also the auditor's place in the gate.
./target/release/chaos --smoke | cmp - results/chaos_smoke.json \
    || { echo "ci: chaos smoke report diverged from results/chaos_smoke.json" >&2; exit 1; }

# K-channel regression: a fixed-seed four-channel cell (channel-tuning
# clients, sharded pull service, obs layer on) must reproduce the committed
# SteadyStateResult — including the per-channel `server.ch<k>.*` and
# `broadcast.ch<k>.*` timelines — bit for bit.
./target/release/channels --smoke | cmp - results/channels_smoke.json \
    || { echo "ci: channels smoke report diverged from results/channels_smoke.json" >&2; exit 1; }

# Single-channel regression: fixed-seed cells of the branches the other
# goldens leave unpinned (adaptive controller with and without crashes,
# saturation degrade, most-requested-first, updates with prefetch,
# Pure-Pull, a chopped program, Figure-4 warm-up worlds) must reproduce
# the committed JSON bit for bit.
./target/release/ablations --smoke | cmp - results/k1_parity_smoke.json \
    || { echo "ci: K=1 parity report diverged from results/k1_parity_smoke.json" >&2; exit 1; }

# Static program verification: rules V0-V6 over every experiment-grid
# configuration of the paper system must raise nothing (--deny exits 1 on
# any finding and prints the report). The grid includes the K-channel
# generator targets (K1/IPP-ch*), so every generated placement is gated on
# conflict-freedom (rule V6) here.
./target/release/verify --deny \
    || { echo "ci: bpp-verify found broadcast-program violations" >&2; exit 1; }

# Verifier report drift guard: the small-system grid report must reproduce
# the committed schema-v1 JSON byte for byte, so rule/message/schema
# changes are always an intentional golden regeneration.
./target/release/verify --smoke | cmp - results/verify_smoke.json \
    || { echo "ci: verify smoke report diverged from results/verify_smoke.json" >&2; exit 1; }

# Micro-benchmarks are opt-in (BPP_BENCH=1): wall-clock noise has no place
# in the default gate, but the engine/obs hot paths can be tracked on
# demand. `cargo bench` runs from the package root, so the BENCH_*.json
# files (gitignored) are moved up to the repo root for collection.
if [ "${BPP_BENCH:-0}" = "1" ]; then
    cargo bench --frozen -p bpp-bench --bench engine --bench obs
    mv crates/bench/BENCH_engine.json crates/bench/BENCH_obs.json .
fi

echo "ci: all checks passed"
