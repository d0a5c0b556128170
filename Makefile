# Tier-1 verification for the Dr.Fix reproduction workspace.
# Single source of truth for the gates: .github/workflows/ci.yml invokes
# these targets.

CARGO ?= cargo

.PHONY: verify build test bench-compile doc clippy fmt fmt-check paper-smoke exposure-smoke tournament-smoke soak-smoke campaign-smoke campaign-scale drbench-smoke bench-all loc clean

# Reduced scale for the CI campaign-smoke kill/resume drill.
DRFIX_CAMPAIGN_CASES ?= 200
# Cases in campaign-smoke's fix-mode serial-versus-workers check.
DRFIX_CAMPAIGN_FIX_CASES ?= 40

## Full tier-1 gate: release build, tests, bench compilation, lints, docs.
verify: build test bench-compile clippy fmt-check doc
	@echo "verify: all gates green"

build:
	$(CARGO) build --release --workspace --all-targets

test:
	$(CARGO) test --workspace -q --no-fail-fast

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

## Paper smoke: the four ablation benches (Fig. 3 retrieval, Fig. 4
## scope and feedback, the LCA location, the RQ3 model tiers) on 4
## worker threads at small scale, each printing its measured fix rates
## next to the paper's; then Fig. 3 again with PCT as the reproduce and
## validate policy, so a PCT pipeline arm runs too.
paper-smoke:
	DRFIX_CASES=12 DRFIX_THREADS=4 DRFIX_VALIDATION_RUNS=4 $(CARGO) bench -q -p bench \
	  --bench fig3_rag_ablation --bench fig4_scope_ablation --bench lca_ablation --bench rq3_models
	DRFIX_CASES=12 DRFIX_THREADS=4 DRFIX_VALIDATION_RUNS=4 DRFIX_POLICY=pct \
	  $(CARGO) bench -q -p bench --bench fig3_rag_ablation

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

## The CI `campaign-smoke` job: the snapshot/resume drill at reduced
## scale (DRFIX_CAMPAIGN_CASES, default 200; 2 shards). A serial
## reference campaign runs uninterrupted, then again on 4 workers
## through a one-case in-flight window (--max-in-flight 1) with a digest
## that must equal the reference; the same campaign runs
## on 4 workers, is killed at its first checkpoint (exit 3), resumes from
## the snapshot, and the resumed digest must equal the uninterrupted
## reference bit-for-bit. A truncated copy of the killed snapshot must
## make `campaignctl status` exit 4. Then a fixable fix-mode campaign
## (DRFIX_CAMPAIGN_FIX_CASES, default 40) runs serially and on 4
## workers: the digests must match, and the serial report must show
## schedules replayed from schedule memos. Exits non-zero on any
## divergence.
campaign-smoke:
	rm -rf target/campaign-smoke && mkdir -p target/campaign-smoke
	$(CARGO) build --release -q -p bench --bin campaignctl
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --serial \
	  --checkpoint-every 25 --snapshot target/campaign-smoke/ref.json \
	  > target/campaign-smoke/ref.log
	target/release/campaignctl status --snapshot target/campaign-smoke/ref.json \
	  --assert-complete --digest > target/campaign-smoke/ref.digest
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --workers 4 \
	  --max-in-flight 1 --checkpoint-every 25 --snapshot target/campaign-smoke/window1.json \
	  > target/campaign-smoke/window1.log
	target/release/campaignctl status --snapshot target/campaign-smoke/window1.json \
	  --assert-complete --digest > target/campaign-smoke/window1.digest
	cmp target/campaign-smoke/ref.digest target/campaign-smoke/window1.digest
	@echo "campaign-smoke: 4 workers through a one-case in-flight window match the serial digest"
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --workers 4 \
	  --checkpoint-every 25 --halt-after-checkpoints 1 \
	  --snapshot target/campaign-smoke/killed.json > target/campaign-smoke/killed.log; \
	  st=$$?; [ $$st -eq 3 ] || { echo "expected halted campaign (exit 3), got $$st"; exit 1; }
	target/release/campaignctl status --snapshot target/campaign-smoke/killed.json \
	  --assert-incomplete > /dev/null
	head -c 100 target/campaign-smoke/killed.json > target/campaign-smoke/truncated.json
	target/release/campaignctl status --snapshot target/campaign-smoke/truncated.json \
	  > /dev/null 2>&1; st=$$?; [ $$st -eq 4 ] || \
	  { echo "expected a corrupt-snapshot exit (4) from status, got $$st"; exit 1; }
	target/release/campaignctl resume --cases $(DRFIX_CAMPAIGN_CASES) --shards 2 --workers 4 \
	  --checkpoint-every 25 --snapshot target/campaign-smoke/killed.json \
	  > target/campaign-smoke/resumed.log
	target/release/campaignctl status --snapshot target/campaign-smoke/killed.json \
	  --assert-complete --digest > target/campaign-smoke/resumed.digest
	cmp target/campaign-smoke/ref.digest target/campaign-smoke/resumed.digest
	@echo "campaign-smoke: kill/resume digest bit-identical to the uninterrupted run"
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_FIX_CASES) --shards 2 --serial \
	  --family fixable --mode fix --snapshot target/campaign-smoke/fix-serial.json \
	  --report target/campaign-smoke/fix-serial-report.json > target/campaign-smoke/fix-serial.log
	target/release/campaignctl status --snapshot target/campaign-smoke/fix-serial.json \
	  --assert-complete --digest > target/campaign-smoke/fix-serial.digest
	target/release/campaignctl run --cases $(DRFIX_CAMPAIGN_FIX_CASES) --shards 2 --workers 4 \
	  --family fixable --mode fix --snapshot target/campaign-smoke/fix-workers.json \
	  > target/campaign-smoke/fix-workers.log
	target/release/campaignctl status --snapshot target/campaign-smoke/fix-workers.json \
	  --assert-complete --digest > target/campaign-smoke/fix-workers.digest
	cmp target/campaign-smoke/fix-serial.digest target/campaign-smoke/fix-workers.digest
	grep -Eq '"replayed_schedules": *[1-9]' target/campaign-smoke/fix-serial-report.json || \
	  { echo "campaign-smoke: the fix campaign replayed no schedule"; exit 1; }
	@echo "campaign-smoke: fix campaign digest identical serial and on 4 workers, schedules replayed"

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

## Every table/figure reproduction at reduced scale.
bench-all:
	DRFIX_CASES=60 DRFIX_VALIDATION_RUNS=8 $(CARGO) bench -p bench

## Non-test lines of code, the count each change reports: non-blank
## lines above each file's test module (its first column-0
## `#[cfg(test)]`), over the tracked .rs files outside tests/, vendor/
## and drbench/.
loc:
	@git ls-files '*.rs' | grep -Ev '^(vendor|drbench|tests)/|/tests/' | \
	  xargs awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t && NF { n++ } END { print n }'

clean:
	$(CARGO) clean
