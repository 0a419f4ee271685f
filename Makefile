GO ?= go

.PHONY: build test fmt-check vet lint race bench bench-all bench-gate-self bench-pair bench-setup-pair alloc-gates identity figures-diff docs loc knobs specs examples smoke largescale-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails, listing them, if any tracked Go file is not
# gofmt-formatted (the lint fixture modules under testdata/ hold
# deliberately odd source and are left alone).
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-formatted:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs simlint, the repo's custom static analyzer enforcing the
# determinism, unit-safety and ownership contract (DESIGN.md §9,
# "Determinism contract"): nowallclock, noglobalrand, maporder,
# floateq, unitliteral, packetown — plus stale-suppression detection.
# It shells out to `go list` for the module's packages and files, so it
# lints exactly what `go build` builds (GOFLAGS included) and needs no
# network.
lint:
	$(GO) run ./cmd/simlint ./...

# The race detector runs over every package: the shared sweep runner
# (internal/sim) and the batched figure runners (internal/experiments)
# contain the real concurrency, but transport/netem/lb must also stay
# clean when exercised from -race test binaries.
race:
	$(GO) test -race ./...

# BENCH is the baseline file `make bench` writes and `make
# bench-gate-self` reads: the newest BENCH_<pr>.json unless named. A PR
# that moves tracked performance starts its own with `make bench
# BENCH=BENCH_<pr>.json`; earlier baselines are append-only history —
# the perf trajectory the ROADMAP tracks — and are never rewritten.
BENCH ?= $(shell ls BENCH_*.json | sort -t_ -k2 -n | tail -1)

# bench writes $(BENCH)'s "after" section: the engine and port
# micro-benchmarks (BenchmarkEventQueue* — the dense-slot one included —
# BenchmarkPortTransit and its 6 144-port Cold form) and the transport's
# BenchmarkSendAckCycle at a statistically
# useful -benchtime plus the figure-scale, large-scale-streaming and
# simlint benchmarks at one iteration each. The file's "before" section
# is the parent commit under the same benchmark file (run these commands
# in a checkout of the parent with this bench_test.go, piping into
# `benchjson -out $(BENCH) -section before`). One capture on the shared
# reference box spreads ±15 %, so a committed pair holds, per benchmark
# and side, the median line of interleaved parent/change rounds (8 for
# the micro-benchmarks) and the three bench/ workloads' `make
# bench-pair` medians as BenchmarkWorkload/<name> lines; a plain `make
# bench` overwrites "after" with a single capture. The raw lines inside
# the JSON stay benchstat-compatible.
bench:
	( $(GO) test -bench 'BenchmarkEventQueue|BenchmarkPortTransit|BenchmarkSendAckCycle' -benchtime 2s -run '^$$' . \
	  && $(GO) test -bench 'BenchmarkFig8ShortFlows|BenchmarkFig10WebSearch|BenchmarkFig13VaryShort|BenchmarkLargeScaleStream|BenchmarkSpecCompile' -benchtime 1x -timeout 30m -run '^$$' . \
	  && $(GO) test -bench 'BenchmarkSimlint' -benchtime 1x -run '^$$' ./internal/lint ) \
	| tee /dev/stderr | $(GO) run ./cmd/benchjson -out $(BENCH) -section after -require 'events/sec,flows/sec,peakRSS-MB'

# bench-all runs every benchmark in every package once, without
# touching any baseline — a quick "do they all still run" check.
# (./... matters: the root package alone would silently skip
# BenchmarkSimlint in internal/lint and any future non-root benchmark.)
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-gate-self fails loudly when the engine's event throughput
# regresses more than 10% across the newest baseline's own
# before->after pair — the only like-for-like check: shared hardware
# runs at different speeds in different sessions, so events/sec compared
# across BENCH files measures the host, not the code. Requires the
# newest BENCH_<pr>.json to carry a "before" section captured on the
# same box as its "after" (see EXPERIMENTS.md "Engine speed
# trajectory").
bench-gate-self:
	@echo "bench-gate-self: $(BENCH) after vs before"
	@$(GO) run ./cmd/benchjson -compare $(BENCH) -base-section before -metric events/sec -max-regress 10 $(BENCH)

# bench-pair is the paired measurement a performance claim rests on
# (choosing-metrics: alternate sides, medians, quartiles, pair wins):
# `make bench-pair REF=<commit> W=<workload> N=<pairs>` builds ./bench at
# REF (exported under .bench_build/) and at the working tree, runs N
# pairs of `-child $(W) -trace 0`, swapping which side goes first, and
# prints every run, then per workload each side's median and quartiles
# and the pair wins for wall_s, cpu_s and peak_rss_mb, and each side's
# median gc_cycles and mallocs — exact counts that repeat per seed, so a
# memory claim shows its mechanism in the same session. W=all takes the
# three gated workloads through one interleaved session. Each side's
# medians also come out as the BenchmarkWorkload/<name> lines benchjson
# ingests (last on stdout, and in .bench_build/pair/{ref,head}.bench), so
# a BENCH file's workload rows are piped, not retyped:
# `cat micro.txt .bench_build/pair/ref.bench | benchjson -section before`.
# Keep the box otherwise idle.
REF ?= HEAD~1
W ?= fattree-mice
N ?= 10
WORKLOADS = leafspine-websearch fattree-mice scheme-sweep

# build-pair exports $(REF) into $(1)/src and builds its package $(2)
# as $(1)/ref, and the working tree's as $(1)/head.
build-pair = rm -rf $(1); mkdir -p $(1)/src; git archive $(REF) | tar -x -C $(1)/src; \
	(cd $(1)/src && $(GO) build -o ../ref $(2)); rm -rf $(1)/src; $(GO) build -o $(1)/head $(2)

bench-pair:
	@set -e; d=.bench_build/pair; $(call build-pair,$$d,./bench); \
	ws="$(W)"; if [ "$$ws" = all ]; then ws="$(WORKLOADS)"; fi; \
	for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) = 1 ]; then order="ref head"; else order="head ref"; fi; \
	  for w in $$ws; do for s in $$order; do \
	    $$d/$$s -child $$w -trace 0 | tr ',' '\n' | awk -F: -v w=$$w -v s=$$s -v i=$$i \
	      '/^"(wall_s|cpu_s|peak_rss_mb|offered_bytes|gc_cycles|mallocs)"/ { gsub(/"/, "", $$1); v[$$1] = $$2 } \
	       END { printf "%d %s %s %.3f %.3f %.1f %.6f %d %d\n", i, w, s, v["wall_s"], v["cpu_s"], v["peak_rss_mb"], v["offered_bytes"] / 1e9, v["gc_cycles"], v["mallocs"] }' | tee -a $$d/runs; \
	  done; done; \
	done; \
	awk -v N=$(N) -v d=$$d -v procs=$$(nproc) ' \
	  function med(w, s, c, p,   n, i, j, t, a, h, f) { \
	    n = 0; for (i = 1; i <= N; i++) a[++n] = v[w, s, i, c]; \
	    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } \
	    h = (n - 1) * p + 1; f = int(h); return f < n ? a[f] + (h - f) * (a[f + 1] - a[f]) : a[n] } \
	  { for (c = 4; c <= 9; c++) v[$$2, $$3, $$1, c] = $$c; gb[$$2] = $$7; if (!($$2 in seen)) { seen[$$2]; ws[++nw] = $$2 } } \
	  END { split("wall_s cpu_s peak_rss_mb offered_gb gc_cycles mallocs", m, " "); split("ref head", side, " "); \
	    for (k = 1; k <= nw; k++) { w = ws[k]; for (c = 4; c <= 6; c++) { \
	      for (j = 1; j <= 2; j++) { s = side[j]; \
	        printf "%-19s %-11s %-4s median %.3f  q1 %.3f  q3 %.3f  n %d\n", w, m[c - 3], s, med(w, s, c, .5), med(w, s, c, .25), med(w, s, c, .75), N } \
	      win = 0; loss = 0; for (i = 1; i <= N; i++) { win += v[w, "head", i, c] < v[w, "ref", i, c]; loss += v[w, "head", i, c] > v[w, "ref", i, c] } \
	      printf "%-19s %-11s head better in %d of %d pairs, ref in %d\n", w, m[c - 3], win, N, loss } \
	      for (c = 8; c <= 9; c++) printf "%-19s %-11s ref median %d  head median %d\n", w, m[c - 3], med(w, "ref", c, .5), med(w, "head", c, .5) } \
	    for (j = 1; j <= 2; j++) { s = side[j]; f = d "/" s ".bench"; for (k = 1; k <= nw; k++) { w = ws[k]; \
	      printf "BenchmarkWorkload/%s-%d\t%d\t%.0f ns/op\t%.3f cpu-s\t%.2f peakRSS-MB\t%.3f wall-s/GB\n", \
	        w, procs, N, med(w, s, 4, .5) * 1e9, med(w, s, 5, .5), med(w, s, 6, .5), med(w, s, 4, .5) / gb[w] > f } close(f) } }' $$d/runs; \
	for s in ref head; do echo "== $$d/$$s.bench"; cat $$d/$$s.bench; done

# bench-setup-pair is bench-pair for set-up time: `make bench-setup-pair
# REF=<commit> W=<workload|all> N=<pairs>` builds both sides the same
# way, runs N pairs of `-workload $(W) -trace 0 -reps 1`, swapping which
# side goes first, reads setup_s (the fastest of the run's set-up
# samples) from each side's results file, and prints every run, then per
# workload each side's median and quartiles and the pair wins. Each run
# still makes one timed repetition, about 5 s; keep the box otherwise
# idle.
bench-setup-pair:
	@set -e; d=.bench_build/setup-pair; $(call build-pair,$$d,./bench); \
	ws="$(W)"; if [ "$$ws" = all ]; then ws="$(WORKLOADS)"; fi; \
	for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) = 1 ]; then order="ref head"; else order="head ref"; fi; \
	  for w in $$ws; do for s in $$order; do \
	    rm -rf $$d/out; $$d/$$s -workload $$w -trace 0 -reps 1 -out $$d/out > /dev/null; \
	    awk -v w=$$w -v s=$$s -v i=$$i '/"setup_s"/ { f = 1 } f && /"value"/ { gsub(/[",]/, "", $$2); printf "%d %s %s %.6f\n", i, w, s, $$2; exit }' \
	      $$d/out/results-$$w-seed*.json | tee -a $$d/runs; \
	  done; done; \
	done; \
	awk -v N=$(N) ' \
	  function med(w, s, p,   n, i, j, t, a, h, f) { \
	    n = 0; for (i = 1; i <= N; i++) a[++n] = v[w, s, i]; \
	    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } \
	    h = (n - 1) * p + 1; f = int(h); return f < n ? a[f] + (h - f) * (a[f + 1] - a[f]) : a[n] } \
	  { v[$$2, $$3, $$1] = $$4; if (!($$2 in seen)) { seen[$$2]; ws[++nw] = $$2 } } \
	  END { split("ref head", side, " "); for (k = 1; k <= nw; k++) { w = ws[k]; \
	    for (j = 1; j <= 2; j++) { s = side[j]; \
	      printf "%-19s setup_s %-4s median %.6f  q1 %.6f  q3 %.6f  n %d\n", w, s, med(w, s, .5), med(w, s, .25), med(w, s, .75), N } \
	    win = 0; loss = 0; for (i = 1; i <= N; i++) { win += v[w, "head", i] < v[w, "ref", i]; loss += v[w, "head", i] > v[w, "ref", i] } \
	    printf "%-19s setup_s head better in %d of %d pairs, ref in %d\n", w, win, N, loss } }' $$d/runs

# alloc-gates runs just the zero-allocation contract tests (they are
# also part of `make test`, this target is the fast inner loop).
alloc-gates:
	$(GO) test -run 'TestAllocGate' -count 1 -v .

# identity runs the output-identity contract on its own: the fabric's
# construction-order pin, the runner's arrival-order pin, the
# workload numbering every mix golden's FlowIDs rest on (Arrivals
# numbers a slice by position and replays it in stable (Start, Index)
# order; a compiled mix's indices are its generation positions), the
# golden figure CSVs and EXPERIMENTS.md's tables rendered from them,
# worker-count identity, observer neutrality, the aggregate against the
# records it folded (finished and truncated runs, plain and replicated,
# FCTs by start time included), the flow draw's independence of the
# balancer (in one run, and across the schemes at every golden sweep
# point) and the benchmark harness's digest tests — the set a change to
# shared run machinery has to keep green (also part of `make test`;
# this is the fast inner loop).
identity:
	$(GO) test -count 1 -run 'TestConstructionOrderPinned' ./internal/topology
	$(GO) test -count 1 -run 'TestArrivalsNumbersAndReplays' ./internal/workload
	$(GO) test -count 1 -run 'TestCompiledMixIndexIsGenerationPosition' ./internal/spec
	$(GO) test -count 1 -run 'TestGoldenFigures|TestEveryParamIsSetByARun|TestEverySpecFieldIsSetByARun|TestSchemesAtASweepPointShareTheirFlows|TestParallelSerialIdentical' ./internal/experiments
	$(GO) test -count 1 -run 'TestExperimentsGoldenBlocks' .
	$(GO) test -count 1 -run 'TestArrivalOrderPinned|TestSessionObserverNeutral|TestAggregateMatchesRecords|TestFlowDrawIndependentOfBalancer' ./internal/sim
	$(GO) test -count 1 ./bench

# figures-diff is the figure-identity check for a change that must not
# move any figure: `make figures-diff REF=<commit>` builds
# cmd/experiments at REF (exported under .bench_build/) and at the
# working tree, runs every registry entry but fig15 (its bars are host
# timings) on both with `-flows $(FLOWS) -points $(POINTS) -q -format
# csv -dump-specs`, prints both the CSV and the dumped-spec differences,
# and then fails if either differed. FLOWS=30 POINTS=0 is the full grid
# (each figure's own sweep points).
FLOWS ?= 40
POINTS ?= 2

figures-diff:
	@set -e; d=.bench_build/figures; $(call build-pair,$$d,./cmd/experiments); \
	figs=$$($$d/head -list | awk 'NR > 1 && $$1 != "fig15" { printf "%s%s", sep, $$1; sep = "," }'); \
	for s in ref head; do \
	  $$d/$$s -fig $$figs -flows $(FLOWS) -points $(POINTS) -q -format csv -dump-specs $$d/$$s-specs > $$d/$$s.csv; \
	done; \
	st=0; diff $$d/ref.csv $$d/head.csv || st=1; diff -r $$d/ref-specs $$d/head-specs || st=1; \
	if [ $$st != 0 ]; then echo "figures-diff: output differs from $(REF)"; exit 1; fi; \
	echo "figures-diff: $$(wc -l < $$d/head.csv) CSV lines and $$(ls $$d/head-specs | wc -l) specs identical to $(REF)"

# docs refreshes the record of what the repo reproduces, in order: the
# golden figure CSVs, then EXPERIMENTS.md's tables rendered from them
# (each table sits between `<!-- golden:... -->` and `<!-- /golden -->`
# markers). Review both diffs; a claim test a refresh flips changes with
# its verdict.
docs:
	TLB_UPDATE_GOLDEN=1 $(GO) test -count=1 -run TestGoldenFigures ./internal/experiments
	TLB_UPDATE_GOLDEN=1 $(GO) test -count=1 -run TestExperimentsGoldenBlocks .

# loc prints the ROADMAP's simplicity measure — lines of non-test Go
# outside bench/ — so every simplicity PR quotes the same count.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# knobs prints the ROADMAP's options measure — registered schemes and
# their parameters, spec fields, the settable transport.Config fields,
# the lb.Env facts a scheme builder reads, CLI flag definitions, the
# rules in simlint's rule table — for before/after.
knobs:
	@echo "registered schemes $$($(GO) run ./cmd/tlbsim -list-schemes | grep -c '^[^ ]')"
	@echo "scheme parameters  $$($(GO) run ./cmd/tlbsim -list-schemes | grep -cE '^    [A-Za-z]+ +(duration|bytes|bandwidth|int|float|bool|string) ')"
	@echo "spec fields        $$(grep -c 'json:"' internal/spec/spec.go)"
	@echo "transport settings $$($(call fields,Config) internal/transport/config.go)"
	@echo "lb.Env facts       $$($(call fields,Env) internal/lb/registry.go)"
	@echo "cli flags          $$(grep -rhoE 'flag\.((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)(Var)?|Var)\(' cmd | wc -l)"
	@echo "simlint rules      $$(awk '/^var ruleTable = / { f = 1; next } f && /^}/ { f = 0 } f && /^\t"/ { n++ } END { print n + 0 }' internal/lint/lint.go)"

# fields is an awk program counting the named fields of struct $(1) in
# the file it is given (comments stripped; "A, B T" is two).
fields = awk '/^type $(1) struct/ { f = 1; next } f && /^}/ { f = 0 } f { sub(/\/\/.*/, "") } f && NF > 1 { n += NF - 1 } END { print n + 0 }'

# specs validates every checked-in scenario spec through the loader
# and registry (the example specs, the tlbsim presets and the golden
# experiment specs), then runs the quickstart spec and the mix preset
# end to end.
specs:
	$(GO) run ./cmd/tlbsim -check-spec -spec 'examples/*/spec.json,cmd/tlbsim/specs/*.json,internal/experiments/testdata/specs/*.json'
	$(GO) run ./cmd/tlbsim -spec examples/quickstart/spec.json >/dev/null
	$(GO) run ./cmd/tlbsim -spec cmd/tlbsim/specs/mix.json >/dev/null

# examples compiles and runs every examples/ program as smoke; each
# must exit 0.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# smoke runs one small end-to-end figure — the fault-injection
# experiment, which crosses every layer (faults -> netem -> lb/core ->
# sim -> experiments) — and discards the output; it only has to exit 0.
smoke:
	$(GO) run ./cmd/experiments -fig figF1 -flows 60 -workers 2 -q >/dev/null

# largescale-smoke runs the streamed k=16 fat-tree scenario (figLS) at
# a reduced flow count (2 x 1250 = 2500 flows, past the exact-percentile
# cap): the lazy workload source, the fold and the sketched Result
# accessors all have to work end to end for it to exit 0. The full-scale (1M flow) numbers
# live in EXPERIMENTS.md "Large scale".
largescale-smoke:
	$(GO) run ./cmd/experiments -fig figLS -flows 2 -q >/dev/null

# ci is the gate: static checks (gofmt, vet, simlint), the full test
# suite, the zero-allocation gates, the output-identity contract, the
# race detector over all packages, and the end-to-end smoke runs.
ci: build fmt-check vet lint test alloc-gates identity race specs examples smoke largescale-smoke
