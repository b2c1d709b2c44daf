# Every target here is exactly what CI runs, so a green `make lint`
# locally implies a green lint column in CI and vice versa.

GO ?= go
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race lint lint-tools fmt-check vet nexusvet staticcheck govulncheck

all: build test lint

build:
	$(GO) build ./...

# perfbench is a nested module, so ./... at the root skips it; vet and test
# it explicitly so an API change under internal/ cannot break it silently.
test:
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

race:
	$(GO) test -race ./...

# lint is the full static gate: formatting, stock vet, the project's own
# nexusvet invariant suite, then staticcheck and govulncheck.
lint: fmt-check vet nexusvet staticcheck govulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# nexusvet statically enforces the runtime's concurrency invariants (see
# DESIGN.md "Statically enforced invariants"). It runs through go vet's
# -vettool protocol so package loading, in-package test files and build
# caching behave exactly as for any stock vet check.
nexusvet:
	$(GO) build -o bin/nexusvet ./cmd/nexusvet
	$(GO) vet -vettool=$(CURDIR)/bin/nexusvet ./...

# staticcheck and govulncheck are pinned via lint-tools in CI; locally
# they are gated on the binary being present so `make lint` still works
# on a machine without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins it at $(STATICCHECK_VERSION) via make lint-tools)"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins it at $(GOVULNCHECK_VERSION) via make lint-tools)"; fi

# lint-tools installs the pinned external linters; the versions above are
# the single source of truth for both CI and local installs.
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
