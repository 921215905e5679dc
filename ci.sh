#!/bin/sh
# CI gate for the repo. This is the tier-1+ check: everything the tier-1
# verify (`go build ./... && go test ./...`) covers, plus vet, the race
# detector, and the engine fuzz seeds.
#
#   ./ci.sh          # full gate
#   FUZZTIME=30s ./ci.sh   # additionally fuzz the sim engine for 30s
set -eu
cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...

echo "== m3vlint =="
# Project-specific invariants: determinism (detmap over every package whose
# code runs inside a simulation, analysis.DeterministicPkgs; walltime), hot-path
# allocation discipline including transitive call chains (noalloc), the
# non-blocking simulation context (simblock), span begin/end balance
# (spanleak), and metric/span naming (metricname, spanname). Any diagnostic
# fails the gate; suppressions need //m3vlint:ignore with a reason, and
# stale suppressions are themselves findings.
go run ./cmd/m3vlint ./...

echo "== m3vlint self =="
# The analyzer suite must hold itself to the same invariants: a subset run
# over the analysis packages (loading the rest of the module from export
# data, the same way editors lint single packages) has to come back clean.
go run ./cmd/m3vlint ./internal/analysis/...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== perfbench module =="
# The repository benchmark is its own module (replace m3v => ../), so the
# root ./... patterns above never build it. Vet and test it here: a root
# go.mod bump or an API change that breaks it fails this gate.
(cd perfbench && go vet ./... && go test -short ./...)

echo "== fuzz seeds =="
# FuzzEngineOrdering and FuzzProcHandoff (internal/sim) check dispatch order
# and the direct process hand-off against reference schedulers.
# FuzzReadFlows (internal/trace) and FuzzReadSeries (cmd/m3vstat) feed the
# flow and series file readers and everything m3vtrace/m3vstat run on them.
go test -run '^Fuzz' ./internal/sim ./internal/noc ./internal/dtu ./internal/serve \
    ./internal/trace ./cmd/m3vstat

echo "== parallel sweep runner under race =="
# The full race pass above already covers the heavy equivalence tests; this
# re-runs the runner/registry mechanics uncached as an explicit gate.
go test -race -count=1 -run 'TestRunPoints|TestForEachPoint' ./internal/bench
go test -race -count=1 -run 'TestAutoRegisterConcurrent' ./internal/trace

echo "== bench smoke =="
# One iteration of the engine hot-path benchmarks (the alloc guards run as
# regular tests), of the fastest figure benchmark and of Figure 10, the
# data path (DTU READs into caller buffers, YCSB runs replayed per mix).
# ProcSleep records the Sleep fast path (the sleeper's own resume is the
# next event) against a forced miss.
go test -run '^$' -bench 'EngineSchedule|EnginePingPong|ProcSleep' -benchtime 1x ./internal/sim
go test -run '^$' -bench 'Fig9FindOneTile|Experiments/^fig10$' -benchtime 1x .

echo "== perf smoke =="
# Allocation gates: every sim microbenchmark runs once and the
# event queue's alloc guard must hold (once the 4-ary heap and the same-time
# ring are warm, scheduling and dispatch allocate nothing). Dispatch order
# is gated by FuzzEngineOrdering (fuzz seeds). The switch-count guard
# holds the direct process hand-off to one coroutine entry per ping-pong
# round and two per round of a three-process ring.
go test -run '^$' -bench . -benchtime 1x ./internal/sim/
go test -run 'TestSchedulePathAllocFree' -count=1 -v ./internal/sim/ \
    | grep -q '^--- PASS: TestSchedulePathAllocFree'
go test -run 'TestHandoffSwitchCount' -count=1 -v ./internal/sim/ \
    | grep -q '^--- PASS: TestHandoffSwitchCount'
# Message-path alloc guards: a warm DTU RPC, one-way message, READ and
# WRITE of a page and the external requests allocate nothing, and neither
# do a warm no-op syscall and an M3x slow-path RPC on the full platform
# (messages stay in their receive slots until ACK, writers are reused).
go test -run 'TestMessagePathAllocs' -count=1 -v ./internal/dtu/ \
    | grep -q '^--- PASS: TestMessagePathAllocs'
go test -run 'TestNoopSyscallAllocs' -count=1 -v ./internal/core/ \
    | grep -q '^--- PASS: TestNoopSyscallAllocs'
go test -run 'TestM3xSlowRPCAllocs' -count=1 -v ./internal/core/ \
    | grep -q '^--- PASS: TestM3xSlowRPCAllocs'
# Footprint guards: an FPGA boot allocates at most 160 KB (endpoint blocks,
# histogram grids and DRAM pages are allocated on first use), and 64-byte
# writes at a 4 KiB stride cost at most 128 bytes per DRAM page.
go test -run 'TestBootBytes' -count=1 -v ./internal/core/ \
    | grep -q '^--- PASS: TestBootBytes'
go test -run 'TestPageFootprint' -count=1 -v ./internal/mem/ \
    | grep -q '^--- PASS: TestPageFootprint'

echo "== m3vtrace smoke =="
# End-to-end flow tracing gate: a small run of Figure 6's pair dumps its span
# streams, m3vtrace -check verifies well-formedness (every begin has an
# end, children enclosed by parents, every completed message resolves to
# exactly one fast/slow verdict), and the report must parse segments. The
# fig9 one-tile run covers the M3x slow path, so both verdicts are checked.
# Each tool writes its report to a file first: the shell has no pipefail, so
# piping a failing tool into grep -q would hide its exit status.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
go run ./cmd/m3vsim -rounds 10 -shared -flows "$TRACE_TMP/fig6.json" > /dev/null
go run ./cmd/m3vtrace -check "$TRACE_TMP/fig6.json"
go run ./cmd/m3vtrace -perfetto "$TRACE_TMP/fig6-perfetto.json" \
    "$TRACE_TMP/fig6.json" > "$TRACE_TMP/fig6-perfetto.txt"
grep -q 'dtu.send' "$TRACE_TMP/fig6-perfetto.txt"
grep -q '"ph":"s"' "$TRACE_TMP/fig6-perfetto.json"   # flow arrows present
go run ./cmd/m3vtrace "$TRACE_TMP/fig6.json" > "$TRACE_TMP/fig6-report.txt"
grep -Eq '[1-9][0-9]* fast' "$TRACE_TMP/fig6-report.txt"
# A flows file with an unknown span name is a one-line error and exit 1,
# not a panic. The binary is built first: go run adds its own exit line.
go build -o "$TRACE_TMP/m3vtrace" ./cmd/m3vtrace
sed 's/"dtu\.send"/"dtu.bogus"/' "$TRACE_TMP/fig6.json" > "$TRACE_TMP/fig6-bad.json"
if "$TRACE_TMP/m3vtrace" -check "$TRACE_TMP/fig6-bad.json" > /dev/null \
    2> "$TRACE_TMP/fig6-bad.txt"; then
    echo "m3vtrace -check accepted an unknown span name"; exit 1
fi
test "$(wc -l < "$TRACE_TMP/fig6-bad.txt")" -eq 1
grep -q 'unknown span name "dtu.bogus"' "$TRACE_TMP/fig6-bad.txt"
if grep -q 'goroutine' "$TRACE_TMP/fig6-bad.txt"; then exit 1; fi
# The same run also exports a sampled series of its four systems, so the
# shared writer and m3vstat are exercised on multi-run input.
go run ./cmd/m3vbench -run fig9 -fig9-tiles 1 -flows "$TRACE_TMP/fig9.json" \
    -sample-interval 1us -series "$TRACE_TMP/fig9-series.json" > /dev/null
go run ./cmd/m3vtrace -check "$TRACE_TMP/fig9.json"
go run ./cmd/m3vtrace "$TRACE_TMP/fig9.json" > "$TRACE_TMP/fig9-report.txt"
grep -Eq '[1-9][0-9]* slow,' "$TRACE_TMP/fig9-report.txt"
grep -q 'kernel.forward' "$TRACE_TMP/fig9-report.txt"
go run ./cmd/m3vstat "$TRACE_TMP/fig9-series.json" > "$TRACE_TMP/fig9-stat.txt"
grep -q 'utilization' "$TRACE_TMP/fig9-stat.txt"

echo "== chaos smoke =="
# Deterministic fault injection gate: two chaos runs with the same seed
# must print identical trace hashes (see DESIGN.md section 9), and the
# fault package must report test coverage.
go run ./cmd/m3vsim -rounds 10 -fault-seed 42 -fault-rate 0.05 -trace-hash \
    > "$TRACE_TMP/chaos1.txt"
go run ./cmd/m3vsim -rounds 10 -fault-seed 42 -fault-rate 0.05 -trace-hash \
    > "$TRACE_TMP/chaos2.txt"
CH1="$(grep 'trace-hash:' "$TRACE_TMP/chaos1.txt")"
CH2="$(grep 'trace-hash:' "$TRACE_TMP/chaos2.txt")"
test -n "$CH1"
test "$CH1" = "$CH2"
grep -q 'faults:   seed 42' "$TRACE_TMP/chaos1.txt"
go test -cover ./internal/fault/... > "$TRACE_TMP/faultcov.txt"
cat "$TRACE_TMP/faultcov.txt"
grep -q 'coverage:' "$TRACE_TMP/faultcov.txt"

echo "== telemetry smoke =="
# Sim-time telemetry gate: a sampled fig6-style run must export Perfetto
# counter tracks and an m3vstat-readable series file whose report shows the
# utilization and tail-latency tables; the gauge hot path and the
# disabled-sampler run loop must stay allocation free.
go run ./cmd/m3vsim -rounds 10 -shared -sample-interval 100ns \
    -series "$TRACE_TMP/fig6-series.json" \
    -trace "$TRACE_TMP/fig6-sampled.json" > /dev/null
grep -q '"ph":"C"' "$TRACE_TMP/fig6-sampled.json"   # counter tracks present
# The same kind of run decoded with encoding/json: one slice per recorded
# span, one s/f arrow pair per flow of two or more spans, and a name for
# every process and lane the file uses.
go test -count=1 -run 'TestRunTraceChrome' -v ./cmd/m3vsim/ \
    | grep -q '^--- PASS: TestRunTraceChrome'
go run ./cmd/m3vstat "$TRACE_TMP/fig6-series.json" > "$TRACE_TMP/fig6-stat.txt"
grep -q 'utilization' "$TRACE_TMP/fig6-stat.txt"
grep -q 'switch_time' "$TRACE_TMP/fig6-stat.txt"
go test -count=1 -run 'TestGaugeAllocFree' ./internal/trace
go test -count=1 -run 'TestNoSamplerZeroCost' ./internal/sim

echo "== serve smoke =="
# Daemon gate: m3vd on an ephemeral port must answer duplicate requests
# byte-identically with the second served from cache (counter-verified via
# /metrics), distinct requests must differ, a duplicate-heavy m3vload run
# must succeed, and SIGTERM must drain to exit 0.
go build -o "$TRACE_TMP/m3vd" ./cmd/m3vd
go build -o "$TRACE_TMP/m3vload" ./cmd/m3vload
"$TRACE_TMP/m3vd" -addr 127.0.0.1:0 -portfile "$TRACE_TMP/m3vd.port" \
    -workers 2 > "$TRACE_TMP/m3vd.log" 2>&1 &
M3VD_PID=$!
trap 'kill "$M3VD_PID" 2>/dev/null || true; rm -rf "$TRACE_TMP"' EXIT
i=0
while [ ! -s "$TRACE_TMP/m3vd.port" ]; do
    i=$((i + 1))
    test "$i" -le 100 || { echo "m3vd never wrote its portfile"; exit 1; }
    sleep 0.1
done
M3VD_ADDR="127.0.0.1:$(cat "$TRACE_TMP/m3vd.port")"
"$TRACE_TMP/m3vload" -addr "$M3VD_ADDR" -single -experiment fig6 \
    -out "$TRACE_TMP/run-a.json"
"$TRACE_TMP/m3vload" -addr "$M3VD_ADDR" -single -experiment fig6 \
    -out "$TRACE_TMP/run-b.json"
cmp "$TRACE_TMP/run-a.json" "$TRACE_TMP/run-b.json"   # duplicates byte-identical
"$TRACE_TMP/m3vload" -addr "$M3VD_ADDR" -single -experiment fig9 -tiles 1 \
    -out "$TRACE_TMP/run-c.json"
if cmp -s "$TRACE_TMP/run-a.json" "$TRACE_TMP/run-c.json"; then
    echo "distinct requests returned identical bodies"; exit 1
fi
"$TRACE_TMP/m3vload" -addr "$M3VD_ADDR" -fetch /metrics \
    > "$TRACE_TMP/m3vd-metrics.txt"
grep -Eq 'serve\.cache_hits [1-9]' "$TRACE_TMP/m3vd-metrics.txt"
"$TRACE_TMP/m3vload" -addr "$M3VD_ADDR" -n 16 -c 4 -dup 0.75 -tiles 1 \
    -experiment fig9 | tee "$TRACE_TMP/m3vload.txt"
grep -q 'errors x0' "$TRACE_TMP/m3vload.txt"
kill -TERM "$M3VD_PID"
wait "$M3VD_PID"                         # graceful drain must exit 0
grep -q 'm3vd: drained' "$TRACE_TMP/m3vd.log"
trap 'rm -rf "$TRACE_TMP"' EXIT

echo "== determinism =="
# Parallel sweeps must render byte-identical tables to serial ones: the
# fig9 tiles 1,2 table at 1 vs 8 workers, plus the other equivalence tests.
go test -count=1 -run 'ParallelSerialEquivalence' ./internal/bench

if [ -n "${FUZZTIME:-}" ]; then
    echo "== fuzzing (${FUZZTIME}) =="
    go test -fuzz FuzzEngineOrdering -fuzztime "$FUZZTIME" ./internal/sim
    go test -fuzz FuzzProcHandoff -fuzztime "$FUZZTIME" ./internal/sim
    go test -fuzz FuzzNoCArbitration -fuzztime "$FUZZTIME" ./internal/noc
    go test -fuzz FuzzDTUCommands -fuzztime "$FUZZTIME" ./internal/dtu
    go test -fuzz FuzzCanonicalize -fuzztime "$FUZZTIME" ./internal/serve
    go test -fuzz FuzzReadFlows -fuzztime "$FUZZTIME" ./internal/trace
    go test -fuzz FuzzReadSeries -fuzztime "$FUZZTIME" ./cmd/m3vstat
fi

echo "CI gate passed."
