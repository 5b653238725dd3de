GO ?= go

.PHONY: all build test vet fmt race race-hot race-async chaos-smoke chaos-soak tier2-soak aot-soak fuzz-smoke bench-smoke bench-test profile-smoke cover cover-update ci bench experiments paper paper-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file, bench/ included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# CI's one race-detector pass: every test of the module under -race. The
# four targets below (race-hot, race-async, tier2-soak, aot-soak) re-run
# subsets of it with the same flags; they are standalone targets for
# focused work, not CI steps.
race:
	$(GO) test -race ./...

# The hot-path packages under the race detector: the parallel experiment
# runner and the chaos harness are the two places goroutines touch shared
# machinery.
race-hot:
	$(GO) test -race ./internal/chaos/... ./internal/experiments/...

# The asynchronous-translation gates: the soak that runs every workload
# with the worker pool on (under -race, it checks the machine/worker
# seam), the staleness/backpressure tests, and the persistent-cache
# round-trip and damage-fallback tests.
race-async:
	$(GO) test -race ./internal/vmm -run 'TestAsync|TestWarmCache|TestCache'
	$(GO) test -race ./internal/txcache

# Short deterministic chaos pass: every workload under every injector,
# fixed seeds, so CI failures are replayable with the printed triple. The
# second pass repeats the matrix with telemetry and the profiler attached,
# so the telemetry observer runs beside every injector, the bisector and
# the async, tier-2 and cache fault paths.
chaos-smoke:
	$(GO) run ./cmd/daisy-chaos -seed 1 -seeds 2
	$(GO) run ./cmd/daisy-chaos -seed 1 -seeds 2 -telemetry -profile $${TMPDIR:-/tmp}/daisy-chaos-smoke.pb

# Crash-safety soak: the full seeded injector matrix — including the
# worker-panic/hang/overflow/stale-publish and cache-I/O injectors —
# under the race detector. Every injected fault must surface as a
# counted degradation with zero divergences; any failure is replayable
# from the printed (workload, injector, seed) triple.
chaos-soak:
	$(GO) run -race ./cmd/daisy-chaos -seed 1 -seeds 4

# Run each native fuzzer for a short while, beyond its seed corpus (which
# every `go test` replays as unit cases): the sparse-memory model, the
# §3.5 scan mapping, the tier-2 lockstep, the group decoder with its size
# arithmetic (every translation-cache hit decodes) and the translation
# cache's entry decoder in front of it (decompression, length checks).
# -fuzz takes one package and one target per command.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScratchRollback$$' -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzScanMapping$$' -fuzztime 10s ./internal/vmm
	$(GO) test -run '^$$' -fuzz '^FuzzTier2Lockstep$$' -fuzztime 10s ./internal/vmm
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeGroup$$' -fuzztime 10s ./internal/vliw
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 10s ./internal/txcache

# Compile and exercise the executor layer benchmark once so a regression
# that breaks it is caught in CI, not at the next perf investigation.
# BenchmarkExec is the executor layer alone; it fails if Exec allocates.
bench-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkExec$$' -benchtime=1x ./internal/vliw

# The end-to-end benchmark's own tests. bench/ is a separate module (it
# replaces daisy with ../), so `go test ./...` at the root does not reach
# it; this target keeps its use of vmm.Stats, vmm.Options and the
# telemetry API compiling and passing.
bench-test:
	cd bench && $(GO) test .

# End-to-end profiler gate: run a workload with every group run attributed,
# export the pprof payload (daisy-run fails unless it re-reads and
# validates), and print the top screen, flat report and hottest page's
# annotated disassembly.
profile-smoke:
	$(GO) run ./cmd/daisy-run -workload c_sieve -sample 1 -profile $${TMPDIR:-/tmp}/daisy-profile-smoke.pb -top -annotate 1

# Tier-2 soak: the optimizing-retranslation gates under the race detector —
# the deopt/quarantine policy tests, the deferred-commit reconstruction
# wall (the FuzzTier2Lockstep seed corpus replays as unit cases), the
# promotion profiler's scratch-view rollback (the seed corpus of
# FuzzScratchRollback, the sparse-memory model fuzzer), and the tier-2
# golden equivalence + determinism suite.
# Byte-identical output against the tier-1 goldens is the bar.
tier2-soak:
	$(GO) test -race ./internal/vmm -run 'TestTier2|FuzzTier2Lockstep'
	$(GO) test -race ./internal/mem -run 'Scratch'
	$(GO) test -race ./internal/golden -run 'Tier2'

# AOT soak: whole-binary pre-translation equivalence under the race
# detector — precompile-then-run must be byte-identical to a synchronous
# cold machine on every golden workload, stay that way while injectors
# rewrite guest code (smc-storm) or damage the cache (cache-bitflip,
# cache-skew), and the two-tier store must survive concurrent shared use.
aot-soak:
	$(GO) test -race ./internal/vmm -run 'TestPrecompile'
	$(GO) test -race ./internal/chaos -run 'TestPrecompileUnderChaos'
	$(GO) test -race ./internal/txcache -run 'TestHotTier|TestConcurrentSharedStore|TestSingleFlight'

# Coverage ratchet: total statement coverage may not fall more than 0.5
# points below the committed COVERAGE.txt baseline. Raise the floor after
# adding tests with `make cover-update`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/daisy-cover -profile cover.out -check

cover-update:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/daisy-cover -profile cover.out -update
	@echo "commit COVERAGE.txt to ratchet the floor"

ci: fmt vet build race chaos-smoke chaos-soak fuzz-smoke bench-smoke bench-test profile-smoke paper-smoke cover

# The end-to-end benchmark (bench/, see bench/README.md) on all five
# workloads; pass flags through bench/run.sh directly for one workload,
# a traced run or -compare.
bench:
	bash bench/run.sh

# The experiment grid alone: every table printed to stdout, the run folder
# under $TMPDIR, no chaos matrix or profiler smoke.
experiments:
	$(GO) run ./cmd/daisy-paper -scale 2 -chaos-seeds 0 -no-profile -out $${TMPDIR:-/tmp}/daisy-experiments

# One-command paper reproduction: the full experiment grid, chaos matrix,
# profiler smoke and output cross-check into a timestamped runs/<stamp>/
# folder. See EXPERIMENTS.md "Reproduce the paper".
paper:
	$(GO) run ./cmd/daisy-paper

# CI gate: the same scale-1 grid as `make paper`, into a throwaway
# folder. daisy-paper exits nonzero if any experiment fails, any output
# digest mismatches the reference interpreter or the goldens, the chaos
# matrix diverges, or the finished folder fails integrity validation.
paper-smoke:
	$(GO) run ./cmd/daisy-paper -out $${TMPDIR:-/tmp}/daisy-paper-smoke -name ci
