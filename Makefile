# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands, so a green `make check` locally predicts a green pipeline.

GO ?= go
PKGS := ./...
# Seeds for the nondeterminism sweep. Distinct -shuffle seeds reorder
# test execution; the seeded property tests (autoscale churn, elastic
# churn, trace conformance) re-derive their own PRNG streams per run, so
# any order- or schedule-dependent state leaks out as a failure.
SWEEP_SEEDS ?= 1 2 3 4 5 6 7 8 9 10
FUZZTIME ?= 30s

.PHONY: build test race check lint vet deadpkgs flowbench fuzz testsweep bench scalebench clean

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

race:
	$(GO) test -race -short $(PKGS)

check: build vet test race flowbench

vet:
	$(GO) vet $(PKGS)

# deadpkgs fails when a package with non-test Go files is linked into no
# binary or example: code only its own tests run. It prints the
# offenders, one import path a line, and nothing when there are none.
deadpkgs:
	@all=$$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' $(PKGS)) || exit 1; \
	live=$$($(GO) list -deps ./cmd/... ./examples/...) || exit 1; \
	dead=$$(printf '%s\n' "$$all" | grep -vxF -e "$$live" || true); \
	if [ -n "$$dead" ]; then \
		echo "$$dead"; \
		echo "deadpkgs: packages above are imported by no cmd/ or examples/ binary" >&2; \
		exit 1; \
	fi

# flowbench is a Go module of its own, so the root ./... never compiles
# it: vet and test it separately, or a change to internal/core or
# internal/infra can break the benchmark unnoticed.
flowbench:
	cd flowbench && $(GO) vet ./... && $(GO) test ./...

# staticcheck is optional locally; CI installs a pinned version. The
# guard keeps `make lint` useful on machines without it.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck $(PKGS); \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

# Fuzz smoke: each target briefly, same invocations as CI. `go test
# -fuzz` takes one target per package run, hence the separate lines.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/workloads/trace/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/engine/faults/
	$(GO) test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/engine/checkpoint/

# testsweep shakes out nondeterminism: the full suite under -race at
# several distinct shuffle seeds, no result caching. A test that depends
# on execution order, shared state, or goroutine schedule fails at some
# seed; the sweep stops at the first one and names it.
testsweep:
	@set -e; for seed in $(SWEEP_SEEDS); do \
		echo "=== testsweep: -race -shuffle=$$seed ==="; \
		$(GO) test -race -count=1 -shuffle=$$seed $(PKGS) || { \
			echo "testsweep: FAILED at shuffle seed $$seed" >&2; exit 1; }; \
	done; \
	echo "testsweep: all seeds green"

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ $(PKGS)

# The scale/autoscale gates CI runs nightly (slow; see BENCH_scale.json).
scalebench:
	SCALE_SMOKE=1 $(GO) test -run 'TestScaleSmoke|TestAutoscaleSmoke' -v -timeout 30m ./internal/scalebench/

clean:
	$(GO) clean -testcache
