# Tier-1 verification for the Dr.Fix reproduction workspace.
# Every recipe runs the Makefile target of the same name, the one
# definition of each gate (CI invokes the same targets).

default: verify

verify:
    make verify

build:
    make build

test:
    make test

bench-compile:
    make bench-compile

doc:
    make doc

clippy:
    make clippy

fmt:
    make fmt

fmt-check:
    make fmt-check

paper-smoke:
    make paper-smoke

exposure-smoke:
    make exposure-smoke

tournament-smoke:
    make tournament-smoke

campaign-smoke:
    make campaign-smoke

campaign-scale:
    make campaign-scale

drbench-smoke:
    make drbench-smoke

soak-smoke:
    make soak-smoke

bench-all:
    make bench-all

loc:
    make loc
