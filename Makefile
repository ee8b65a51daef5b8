GO ?= go

.PHONY: build test vet race fmtcheck lint loc ci verify experiments conformance traces bench benchcheck bench-smoke fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmtcheck fails (listing the offenders) when any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the project's own static analyzers: the architecture linter
# over the module (layering + determinism + diag-code rules) and the P4
# program analyzer, `pipeleon -check` with the symbolic -deep tier, over
# the checked-in program corpus (each trace is linted under its recorded
# cost model). The checker exits 1 on warnings, so the corpus must stay
# warning-free.
lint:
	$(GO) run ./cmd/archlint .
	$(GO) run ./cmd/pipeleon -check -deep testdata/dash.p4 testdata/traces/bluefield2.json testdata/traces/agiliocx.json

# loc prints the numbers ROADMAP aim 2 counts: non-test Go lines of the
# root module (the nested bench/ module excluded), its test lines, the
# exported functions and methods declared in non-test files under
# internal/, then the non-test lines of each internal package.
# TestLineBudget holds the first three to testdata/loc_budget.txt.
loc:
	@printf '%-28s %6d\n' 'root module' "$$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@printf '%-28s %6d\n' 'root module tests' "$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@printf '%-28s %6d\n' 'internal exports' "$$(find internal -name '*.go' ! -name '*_test.go' | xargs grep -hE '^func (\([^)]*\) )?[A-Z]' | wc -l)"
	@for d in internal/*/; do \
		printf '%-28s %6d\n' "$${d%/}" "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; done

# fuzz gives every native fuzz target a short budget of engine time on
# top of the checked-in seed corpora (which `go test` already replays as
# regular cases). Go allows one -fuzz pattern per invocation, hence one
# line per target. FUZZTIME=5m for a longer local campaign.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/p4c/
	$(GO) test -run '^$$' -fuzz '^FuzzLexer$$' -fuzztime $(FUZZTIME) ./internal/p4c/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadValidate$$' -fuzztime $(FUZZTIME) ./internal/p4ir/
	$(GO) test -run '^$$' -fuzz '^FuzzDigestMatchesJSON$$' -fuzztime $(FUZZTIME) ./internal/p4ir/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime $(FUZZTIME) ./internal/p4ir/
	$(GO) test -run '^$$' -fuzz '^FuzzEntryAdmission$$' -fuzztime $(FUZZTIME) ./internal/p4ir/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePackets$$' -fuzztime $(FUZZTIME) ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAnswers$$' -fuzztime $(FUZZTIME) ./internal/controlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzPlanCompileProcess$$' -fuzztime $(FUZZTIME) ./internal/nicsim/
	$(GO) test -run '^$$' -fuzz '^FuzzFlowCacheModel$$' -fuzztime $(FUZZTIME) ./internal/nicsim/
	$(GO) test -run '^$$' -fuzz '^FuzzTableModel$$' -fuzztime $(FUZZTIME) ./internal/nicsim/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTrace$$' -fuzztime $(FUZZTIME) ./internal/target/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz '^FuzzAbsintAgree$$' -fuzztime $(FUZZTIME) ./internal/analysis/absint/
	$(GO) test -run '^$$' -fuzz '^FuzzDenseMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/analysis/absint/

# ci is the full continuous-integration chain: formatting, static checks,
# compile, the complete suite under the race detector, and a short fuzz
# pass over every native fuzz target.
ci: fmtcheck lint
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) fuzz

# conformance runs the target-backend conformance suite (local emulator,
# loopback remote, record/replay) plus the golden-trace round trips.
conformance:
	$(GO) test -race -run 'TestConformance|TestRuntimeRollbackOnVerifyFailure' ./internal/target/
	$(GO) test -race -run 'TestReplayRoundTrip|TestCoreDoesNotImportNicsim' ./internal/core/

# verify is the pre-merge gate: compile everything, vet, run the full
# suite under the race detector (the runtime loop, control plane, and
# fault-injection paths are concurrent), then the backend conformance
# suite explicitly (the scripted fleet drill, TestFleetFaultScenario,
# runs in the race suite), then the end-to-end benchmark's own smoke
# test, then the reproduction
# record (a figure that drifts from results_full.txt fails the gate),
# then the bench-regression gate against the archived baselines.
verify:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	$(MAKE) lint
	$(MAKE) conformance
	$(MAKE) bench-smoke
	$(MAKE) experiments
	git diff --exit-code results_full.txt
	$(MAKE) benchcheck

# experiments regenerates the reproduction record: every figure of
# `cmd/experiments -all` into results_full.txt, save what differs between
# two runs of one build — fig13's search-time table and each "(… ran in …)"
# line — which goes to results_timing.txt (not checked in).
experiments:
	out="$$($(GO) run ./cmd/experiments -all)" && printf '%s\n' "$$out" | awk '\
		/^== / { timing = $$2 == "fig13:" } \
		/^\(.* ran in .*\)$$/ { print > "results_timing.txt"; ran = 1; next } \
		ran && /^$$/ { ran = 0; next } \
		{ ran = 0; print > (timing ? "results_timing.txt" : "results_full.txt") }'

# bench-smoke vets and tests the end-to-end benchmark. bench/ is a module
# of its own, so `go build ./...` and `go test ./...` at the root never
# descend into it; this is what notices a change that breaks it.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# traces regenerates the golden replay traces consumed by the core replay
# round-trip tests and `pipeleon -trace`.
traces:
	$(GO) run ./cmd/tracegen -out testdata/traces/bluefield2.json -target bluefield2 -seed 7
	$(GO) run ./cmd/tracegen -out testdata/traces/agiliocx.json -target agiliocx -seed 21

# bench runs the hot-path micro-benchmarks (emulator fast path, batch
# measurement, search, and — beside their code in internal/opt — the
# tier-aware estimate and the drifting search) plus the Figure 12
# profiling-overhead benches, and
# archives the parsed results in BENCH_emulator.json (see DESIGN.md's
# "Performance architecture" for how to read it). The semantic-proof
# benches live beside their code (internal/analysis and its absint
# subpackage, and the search-time option proof in internal/opt, all on
# the 54-table synth program) and are archived in BENCH_search.json. The per-packet stores' benches live beside theirs
# (flow cache in nicsim, sink flush and snapshot in profile, metadata and
# clone in packet) and are archived in BENCH_datapath.json together with
# the root burst bench that has all three stores on its path, the root
# Measure of that program's batch (walk and finish stage; its gomaxprocs=1
# row gates the one-core path, its rotating row the trace memo's capacity
# under synth-shift's four traffic mixes), the root Measure of the DASH program with
# its baked entries (multi-group and two-word lookups), the same with the
# dash workloads' three flow caches (the cache lock, hits and fills) and the match
# store's rows: lookup per match kind, entry operation per table size,
# bulk install. The control loop's benches live beside theirs too — one
# round of each kind in core, the program digest and the binary codec
# against the JSON they replaced in p4ir, one loopback round trip of each
# bulk RPC and of the profile and cache-stats reads a round makes in
# controlplane and the measure RPC's packet codec alone (its
# encode and decode rows archived at 0 allocs/op, so benchcheck fails on
# any allocation there), one live reconfiguration in nicsim, the deploy
# gate's lint and rewrite proof in analysis, and the set-up rows (a
# runtime's construction in core, the rewrite checker's in analysis, the
# synthesizer's program), all on the 110-table synth program — and are
# archived in BENCH_control.json.
EMUBENCH = BenchmarkEmulatorProcess$$|BenchmarkEmulatorProcessBurst$$|BenchmarkEmulatorProcessInstrumented$$|BenchmarkMeasure$$|BenchmarkSearchCold$$|BenchmarkSearchWarm$$|BenchmarkSearchDrift$$|BenchmarkFig12|BenchmarkPlacementPlan$$|BenchmarkFig20|BenchmarkHeteroEstimate$$
EMUPKGS = . ./internal/opt
PROOFBENCH = BenchmarkAnalyzerExecClasses$$|BenchmarkSemanticCheckerNew$$|BenchmarkSemanticVerify$$|BenchmarkLintDeep$$|BenchmarkProveTouched$$
PROOFPKGS = ./internal/analysis/... ./internal/opt
STOREBENCH = BenchmarkFlowCache$$|BenchmarkBurstFlush$$|BenchmarkSnapshot$$|BenchmarkMeta$$|BenchmarkCloneInto$$|BenchmarkLookup$$|BenchmarkEntryOp$$|BenchmarkBuildTable$$
STOREPKGS = ./internal/nicsim ./internal/profile ./internal/packet
SYNTH110BENCH = BenchmarkEmulatorProcessBurstSynth110Instrumented$$|BenchmarkMeasureSynth110Instrumented$$|BenchmarkMeasureDash$$|BenchmarkMeasureDashCached$$
CONTROLBENCH = BenchmarkRoundSkipped$$|BenchmarkRoundKept$$|BenchmarkRoundDeployed$$|BenchmarkRoundRedeployed$$|BenchmarkNewRuntime$$|BenchmarkDigest$$|BenchmarkMarshalJSON$$|BenchmarkUnmarshalJSON$$|BenchmarkAppendBinary$$|BenchmarkDecodeBinary$$|BenchmarkProgramRPCUnchanged$$|BenchmarkProgramRPCChanged$$|BenchmarkDeployRPCFirstSight$$|BenchmarkDeployRPCRepeat$$|BenchmarkMeasureRPC$$|BenchmarkProfileRPC$$|BenchmarkCacheStatsRPC$$|BenchmarkPacketBatch$$|BenchmarkSwap$$|BenchmarkLint$$|BenchmarkVerifyRewrite$$|BenchmarkRewriteCheckerNew$$|BenchmarkSynthProgram$$|BenchmarkClone$$
CONTROLPKGS = ./internal/core ./internal/p4ir ./internal/controlplane ./internal/nicsim ./internal/analysis ./internal/synth
bench:
	$(GO) test -run '^$$' -bench '$(EMUBENCH)' -benchmem $(EMUPKGS) | $(GO) run ./cmd/benchjson -out BENCH_emulator.json
	$(GO) test -run '^$$' -bench '$(PROOFBENCH)' -benchmem $(PROOFPKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_search.json
	{ $(GO) test -run '^$$' -bench '$(STOREBENCH)' -benchmem $(STOREPKGS); \
	  $(GO) test -run '^$$' -bench '$(SYNTH110BENCH)' -benchmem .; } \
		| $(GO) run ./cmd/benchjson -out BENCH_datapath.json
	$(GO) test -run '^$$' -bench '$(CONTROLBENCH)' -benchmem $(CONTROLPKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_control.json

# benchcheck is the bench-regression gate: rerun the hot-path bench set
# (-count=3; the gate compares best-of-3 per metric) and fail (exit
# nonzero) if a gated benchmark regressed more than MAXREGRESS in ns/op
# — or grew allocs/op — versus the committed BENCH_emulator.json
# baseline (and the proof benches versus BENCH_search.json, the store
# benches versus BENCH_datapath.json, the control-loop benches versus
# BENCH_control.json). The emulator -gate regexp gates the search the
# loop asks for (SearchDrift: a warm session, a profile that moved), not
# SearchWarm — a repeat of the very same profile, which change detection
# skips before it reaches Search. Refresh the baseline with `make bench`
# after intentional performance changes.
MAXREGRESS ?= 0.15
benchcheck:
	$(GO) test -run '^$$' -count=3 -bench '$(EMUBENCH)' -benchmem $(EMUPKGS) \
		| $(GO) run ./cmd/benchjson -compare BENCH_emulator.json -max-regress $(MAXREGRESS) \
		-gate 'Fig12|EmulatorProcess|Measure$$|SearchCold$$|SearchDrift$$|PlacementPlan$$|HeteroEstimate'
	$(GO) test -run '^$$' -count=3 -bench '$(PROOFBENCH)' -benchmem $(PROOFPKGS) \
		| $(GO) run ./cmd/benchjson -compare BENCH_search.json -max-regress $(MAXREGRESS)
	{ $(GO) test -run '^$$' -count=3 -bench '$(STOREBENCH)' -benchmem $(STOREPKGS); \
	  $(GO) test -run '^$$' -count=3 -bench '$(SYNTH110BENCH)' -benchmem .; } \
		| $(GO) run ./cmd/benchjson -compare BENCH_datapath.json -max-regress $(MAXREGRESS)
	$(GO) test -run '^$$' -count=3 -bench '$(CONTROLBENCH)' -benchmem $(CONTROLPKGS) \
		| $(GO) run ./cmd/benchjson -compare BENCH_control.json -max-regress $(MAXREGRESS)
