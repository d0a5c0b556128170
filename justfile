# Tier-1 verification for the Dr.Fix reproduction workspace.
# Convenience mirror of the Makefile (which CI invokes); if the gates
# change, update both.

default: verify

# Full tier-1 gate: release build, tests, bench compilation, lints, docs.
verify: build test bench-compile clippy fmt-check doc
    @echo "verify: all gates green"

build:
    cargo build --release --workspace --all-targets

test:
    cargo test --workspace -q

bench-compile:
    cargo bench --no-run --workspace

doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Formats the whole workspace in place.
fmt:
    cargo fmt --all

# The CI `fmt` job: fails on any unformatted file.
fmt-check:
    cargo fmt --all -- --check

# Fast experiment smoke: headline ablation at reduced scale.
bench-smoke:
    DRFIX_CASES=24 DRFIX_VALIDATION_RUNS=4 cargo bench -q -p bench --bench fig3_rag_ablation

# Parallel-path smoke: calibrate across a 4-worker fleet at small scale.
calibrate-smoke:
    DRFIX_CASES=12 DRFIX_THREADS=4 DRFIX_VALIDATION_RUNS=4 cargo run --release -q -p bench --bin calibrate

# Exposure smoke: schedules_to_expose at small scale.
exposure-smoke:
    DRFIX_STE_CASES=14 DRFIX_STE_MAX_SCHED=64 DRFIX_STE_VALIDATION_RUNS=64 cargo bench -q -p bench --bench schedules_to_expose

# Tournament smoke: the multi-candidate tournament arm's acceptance
# suite on a 2-worker fleet (superset, zero lint VM steps, determinism).
tournament-smoke:
    DRFIX_THREADS=2 cargo test --release -q --test tournament_ab

# Static-analyzer false-positive sweep: statcheck must stay silent on
# every correct program family while the misuse fixtures keep firing.
lint-corpus:
    cargo run --release -q -p bench --bin lintcorpus

# The CI `perf-gate` job: deterministic hot-path counter scan vs the
# checked-in BENCH_hotpath.json baseline (>10% counter drift fails).
perf-smoke:
    cargo run --release -q -p bench --bin perfscan -- --check --out target/perfscan/BENCH_hotpath.json

# Regenerates the checked-in perf baseline (always at the default
# workload scale — stray DRFIX_PERF_* overrides are cleared; timing is
# the fastest of 10 repetitions).
perf-baseline:
    env -u DRFIX_PERF_CASES -u DRFIX_PERF_RUNS -u DRFIX_PERF_HEAP_CASES -u DRFIX_PERF_CHURN_CASES \
    DRFIX_PERF_REPEAT=10 cargo run --release -q -p bench --bin perfscan

# The CI `campaign-smoke` job: kill a 4-worker campaign at its first
# checkpoint, resume it, and require the resumed digest to equal the
# uninterrupted serial reference bit-for-bit (see the Makefile recipe).
campaign-smoke:
    make campaign-smoke

# 10k-case streamed detect campaign with the bounded-resident-memory
# assertion (the corpus never materializes).
campaign-scale:
    make campaign-scale

# The CI `drbench-smoke` job: the benchmark's self-test, then traced
# 60-case fix-service and 20-case fix-deep-validate runs (each exits 1
# unless the serial, pipelined and replay digests agree and the replayed
# validation steps match).
drbench-smoke:
    cargo test --offline --manifest-path drbench/Cargo.toml
    cargo run --release -q --offline --manifest-path drbench/Cargo.toml -- --workload fix-service --cases 60 --trace 1
    cargo run --release -q --offline --manifest-path drbench/Cargo.toml -- --workload fix-deep-validate --cases 20 --trace 1

# The CI `soak-smoke` job: the streaming-soak test at reduced scale —
# bounded detector footprint under goroutine churn with GC on, vs the
# unbounded GC-off control (full ≥1M-step soak runs in `test`).
soak-smoke:
    DRFIX_SOAK_GENS=120 cargo test --release -q --test streaming_soak

# Run every table/figure reproduction at reduced scale.
bench-all:
    DRFIX_CASES=60 DRFIX_VALIDATION_RUNS=8 cargo bench -p bench
