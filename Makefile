# Tier-1 verification for the Dr.Fix reproduction workspace.
# Single source of truth for the gates: .github/workflows/ci.yml invokes
# these targets, and the justfile mirrors them for `just` users.

CARGO ?= cargo

.PHONY: verify build test bench-compile doc clippy fmt fmt-check bench-smoke calibrate-smoke exposure-smoke tournament-smoke lint-corpus perf-smoke perf-baseline soak-smoke campaign-smoke campaign-scale drbench-smoke clean

# Reduced scale for the CI campaign-smoke kill/resume drill.
DRFIX_CAMPAIGN_CASES ?= 200

## Full tier-1 gate: release build, tests, bench compilation, lints, docs.
verify: build test bench-compile clippy fmt-check doc
	@echo "verify: all gates green"

build:
	$(CARGO) build --release --workspace --all-targets

test:
	$(CARGO) test --workspace -q

bench-compile:
	$(CARGO) bench --no-run --workspace

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## Formats the whole workspace in place.
fmt:
	$(CARGO) fmt --all

## The CI `fmt` job: fails on any unformatted file.
fmt-check:
	$(CARGO) fmt --all -- --check

## Fast experiment smoke: headline ablation at reduced scale.
bench-smoke:
	DRFIX_CASES=24 DRFIX_VALIDATION_RUNS=4 $(CARGO) bench -q -p bench --bench fig3_rag_ablation

## Parallel-path smoke: calibrate across a 4-worker fleet at small scale.
calibrate-smoke:
	DRFIX_CASES=12 DRFIX_THREADS=4 DRFIX_VALIDATION_RUNS=4 $(CARGO) run --release -q -p bench --bin calibrate

## Exposure smoke: schedules_to_expose at small scale — the bench
## asserts its exposure contract (PCT exposes every case within budget,
## never behind random; early exits stay clean), so regressions exit
## non-zero here.
exposure-smoke:
	DRFIX_STE_CASES=14 DRFIX_STE_MAX_SCHED=64 DRFIX_STE_VALIDATION_RUNS=64 $(CARGO) bench -q -p bench --bench schedules_to_expose

## Tournament smoke: the multi-candidate tournament arm's acceptance
## suite on a 2-worker fleet — strict fix superset over the single-path
## loop, zero VM steps on lint-rejected rosters, and bit-identical
## outcomes across thread counts and re-runs. Exits non-zero on any
## regression.
tournament-smoke:
	DRFIX_THREADS=2 $(CARGO) test --release -q --test tournament_ab

## Static-analyzer false-positive sweep: statcheck over every program
## family the pipeline treats as correct (human fixes, clean control,
## perf families) must stay silent, the racy originals must stay free
## of error-tier findings, and the misuse fixtures must keep firing.
## Exits non-zero on any violation — the gate must never veto a fix.
lint-corpus:
	$(CARGO) run --release -q -p bench --bin lintcorpus

## The CI `perf-gate` job: replay the deterministic hot-path counter
## scan and fail if any counter regresses >10% against the checked-in
## BENCH_hotpath.json baseline (wall-clock is reported, never gated).
## The fresh report lands in target/perfscan/ for artifact upload.
perf-smoke:
	$(CARGO) run --release -q -p bench --bin perfscan -- --check --out target/perfscan/BENCH_hotpath.json

## Regenerates the checked-in perf baseline (run + commit only when a
## counter drift is intentional). The DRFIX_PERF_* scale knobs are
## explicitly cleared so a stray environment override can never produce
## a baseline the gate then refuses to compare — the baseline is always
## the default workload, deterministically. Timing keeps the fastest of
## 10 repetitions (vs the gate's 5): the recorded wall-clock should
## reflect the machine, not a noisy-neighbour window.
perf-baseline:
	env -u DRFIX_PERF_CASES -u DRFIX_PERF_RUNS -u DRFIX_PERF_HEAP_CASES \
	-u DRFIX_PERF_CHURN_CASES \
	DRFIX_PERF_REPEAT=10 \
	$(CARGO) run --release -q -p bench --bin perfscan

## The CI `campaign-smoke` job: the snapshot/resume drill at reduced
## scale (DRFIX_CAMPAIGN_CASES, default 200; 2 shards). A serial
## reference campaign runs uninterrupted; the same campaign runs
## on 4 workers, is killed at its first checkpoint (exit 3), resumes from
## the snapshot, and the resumed digest must equal the uninterrupted
## reference bit-for-bit. Exits non-zero on any divergence.
campaign-smoke:
	rm -rf target/campaign-smoke && mkdir -p target/campaign-smoke
	$(CARGO) build --release -q -p bench --bin campaignctl
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --serial \
	  --checkpoint-every 25 --snapshot target/campaign-smoke/ref.json \
	  > target/campaign-smoke/ref.log
	target/release/campaignctl status --snapshot target/campaign-smoke/ref.json \
	  --assert-complete --digest > target/campaign-smoke/ref.digest
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --workers 4 \
	  --checkpoint-every 25 --halt-after-checkpoints 1 \
	  --snapshot target/campaign-smoke/killed.json > target/campaign-smoke/killed.log; \
	  st=$$?; [ $$st -eq 3 ] || { echo "expected halted campaign (exit 3), got $$st"; exit 1; }
	target/release/campaignctl status --snapshot target/campaign-smoke/killed.json \
	  --assert-incomplete > /dev/null
	target/release/campaignctl resume --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --workers 4 \
	  --checkpoint-every 25 --snapshot target/campaign-smoke/killed.json \
	  > target/campaign-smoke/resumed.log
	target/release/campaignctl status --snapshot target/campaign-smoke/killed.json \
	  --assert-complete --digest > target/campaign-smoke/resumed.digest
	cmp target/campaign-smoke/ref.digest target/campaign-smoke/resumed.digest
	@echo "campaign-smoke: kill/resume digest bit-identical to the uninterrupted run"

## Campaign at deployment scale: a 10k-case streamed detect campaign
## on 4 workers, asserting the resident generated-case-bytes high-water
## stays under 32 KiB (4 workers × an 8 KiB per-case ceiling) — the
## corpus is synthesized on demand and never materializes, so memory is
## bounded by the cases workers are running, not the campaign length.
campaign-scale:
	$(CARGO) build --release -q -p bench --bin campaignctl
	target/release/campaignctl run --cases 10000 --shards 8 --workers 4 \
	  --checkpoint-every 256 --assert-resident-under 32768 \
	  --report target/campaign-smoke/scale-report.json

## The CI `drbench-smoke` job: the benchmark's self-test, then one traced
## 60-case fix-service run and one traced 20-case fix-deep-validate run
## (1000 validation schedules per candidate). drbench exits 1 unless the
## serial, pipelined and replay digests agree and the replayed validation
## steps match what the fix arm reported.
drbench-smoke:
	$(CARGO) test --offline --manifest-path drbench/Cargo.toml
	$(CARGO) run --release -q --offline --manifest-path drbench/Cargo.toml -- \
	  --workload fix-service --cases 60 --trace 1
	$(CARGO) run --release -q --offline --manifest-path drbench/Cargo.toml -- \
	  --workload fix-deep-validate --cases 20 --trace 1

## The CI `soak-smoke` job: the streaming-soak test at reduced scale —
## shadow GC + clock reclamation must keep a churning workload's
## detector footprint bounded (and the GC-off control unbounded) with
## every logical observable bit-identical between the two runs. The
## full ≥1M-step soak runs in the tier-1 `test` target (default scale).
soak-smoke:
	DRFIX_SOAK_GENS=120 $(CARGO) test --release -q --test streaming_soak

clean:
	$(CARGO) clean
