#!/usr/bin/env sh
# Full offline CI gate: build, test, lint, docs, format, golden checks.
#
# `--frozen` forbids both network access and lockfile changes, proving the
# workspace builds with zero external dependencies from a cold checkout.
set -eu

cd "$(dirname "$0")/.."

# Lint inheritance guard: the workspace lint table (`unsafe_code` forbid,
# clippy's panic and determinism lints) reaches a member only through a
# `[lints]` table with `workspace = true` in its manifest.
for manifest in crates/*/Cargo.toml; do
    awk '/^\[lints\]/ { t = 1; next } /^\[/ { t = 0 } t && /^workspace *= *true/ { ok = 1 }
         END { exit !ok }' "$manifest" \
        || { echo "ci: $manifest does not inherit the workspace lints ([lints] workspace = true)" >&2; exit 1; }
done

cargo build --release --frozen
cargo test -q --frozen
# The fault-injection suite runs as part of the workspace tests above, but
# gate on it explicitly so a filtered/partial test invocation can't skip it.
cargo test -q --frozen -p bpp-core --test faults
# Likewise the timer wheel's differential test against the reference heap
# scheduler, on which the wheel's correctness rests; once more in release,
# so the build of the wheel that the simulator ships is compared as well.
cargo test -q --frozen -p bpp-sim --test differential
cargo test --release -q --frozen -p bpp-sim --test differential
# The same for the dense pull queue against its BTreeMap reference model:
# the request path of every pull-based run rests on it.
cargo test -q --frozen -p bpp-server --test queue_reference
cargo test --release -q --frozen -p bpp-server --test queue_reference
# And the two suites that audit request conservation at runtime (the
# config fuzz and the chaos harness check the ConservationLedger on every
# run); no static rule backs them, so a filtered run must not skip them.
cargo test -q --frozen -p bpp-core --test config_fuzz
cargo test -q --frozen -p bpp-core --test chaos
# The source-hygiene scans clippy cannot make (see DESIGN.md "Static
# analysis"): float-literal comparisons, one construction site per RNG
# stream, orphan goldens and unreachable experiment grids.
cargo test -q --frozen -p bpp-core --test hygiene
# Clippy carries the determinism and panic-hygiene rules (the lint table
# in Cargo.toml, banned types and methods in clippy.toml). An
# `#[expect(…)]` that no longer matches fails it as well.
cargo clippy --all-targets --frozen -- -D warnings
# Rustdoc gate: a dangling or ambiguous intra-doc link fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --frozen

# The benchmark (perfbench/, a package of its own outside the workspace)
# calls the public experiment API; its smoke test fails the gate when a
# change to that API breaks it.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

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
# Pure-Pull, a chopped program, Figure-4 warm-up worlds, the LRU and LFU
# caches under Pure-Push, retries after refused and admission-rejected
# sends for the MC and for a fleet) must reproduce the committed JSON bit
# for bit.
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

# Entry points no golden pins: every figure and table binary, and the
# default (sweep) mode of each scenario binary, at its quick setting on the
# small system, and every example once. Their output is not compared; a
# panic or a non-zero exit fails the gate.
cargo build --release --frozen --examples
for bin in fig3 fig4 fig5 fig6 fig7 fig8 tables extensions ablations \
    faults fleet chaos channels obs; do
    ./target/release/"$bin" --quick --small --seed 5 > /dev/null \
        || { echo "ci: $bin --quick --small --seed 5 failed" >&2; exit 1; }
done
for example in quickstart traffic_info stock_ticker capacity_planner program_designer; do
    ./target/release/examples/"$example" > /dev/null \
        || { echo "ci: example $example failed" >&2; exit 1; }
done

# Micro-benchmarks are opt-in (BPP_BENCH=1): wall-clock noise has no place
# in the default gate, but the engine/obs hot paths can be tracked on
# demand. `cargo bench` runs from the package root, so the BENCH_*.json
# files (gitignored) are moved up to the repo root for collection.
if [ "${BPP_BENCH:-0}" = "1" ]; then
    cargo bench --frozen -p bpp-bench --bench engine --bench obs
    mv crates/bench/BENCH_engine.json crates/bench/BENCH_obs.json .
fi

echo "ci: all checks passed"
