#!/bin/sh
# Tier-1 verification: everything here must pass on every commit.
#
#   build    — the whole module compiles
#   vet      — static checks
#   lint     — phantomlint (internal/analysis): determinism and zero-tax
#              tracing invariants, machine-checked (DESIGN.md §10)
#   test     — full test suite
#   race     — the packages that spawn goroutines (the parallel table
#              runner, the obs snapshot/merge boundary, the fleet worker
#              pool, the live HTTP observability plane and the CLI that
#              drives them) under the race detector
set -eu
cd "$(dirname "$0")"

echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== phantomlint"
go run ./cmd/phantomlint ./...
echo "== go test"
go test ./...
echo "== go test -race (concurrency boundary)"
go test -race ./internal/experiment/ ./internal/obs/ ./internal/fleet/ ./internal/obs/serve/ ./cmd/phantomlab/
echo "verify: OK"
