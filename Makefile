GO ?= go

.PHONY: all build test race lint fmt invariants

all: build lint test

build:
	$(GO) build ./...

# benchmark/ is its own module, so the root ./... skips it; test it too so an
# API change that breaks its build fails here, as in CI.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race ./...

# Full suite with the dynamic invariant checks live (see DESIGN.md §5b).
invariants:
	$(GO) test -race -tags desis_invariants ./...

# The seven-analyzer suite: analyzer unit tests, then the tree itself,
# through both drivers (standalone and go vet -vettool).
lint:
	$(GO) test ./internal/lint/...
	$(GO) run ./cmd/desis-lint ./...
	$(GO) build -o /tmp/desis-lint ./cmd/desis-lint
	$(GO) vet -vettool=/tmp/desis-lint ./...

fmt:
	gofmt -l -w .
