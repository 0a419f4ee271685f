GO ?= go

.PHONY: build test fmt-check vet lint fma-check cross-arch census race bench-all bench-pair bench-setup-pair alloc-gates identity figures-diff docs loc knobs specs examples smoke ci

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

# fma-check fails if an arm64 build of the simulator packages holds a
# fused multiply-add: the Go spec lets a compiler fuse x*y + z into one
# instruction that rounds once, which amd64 never does and arm64, ppc64le
# and s390x do, so a golden pinned on amd64 could move elsewhere. The
# code converts each such product (float64(x*y) + z) to round it
# explicitly (DESIGN.md §9). The compiler's -S listing is replayed from
# the build cache, so a cached build still checks. The simulator
# packages are every internal package but the linter and the report
# renderer, so a new one is checked without editing this list.
SIM_PKGS = $(filter-out %/lint %/report,$(shell $(GO) list ./internal/...))

fma-check:
	@set -e; f=$$(mktemp); trap 'rm -f $$f' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags=-S $(SIM_PKGS) 2> $$f || { cat $$f; exit 1; }; \
	if grep -E '\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\s' $$f; then echo "fma-check: fused multiply-add above; convert the product"; exit 1; fi

# cross-arch checks the same promise on a second GOARCH, natively: 386,
# whose int is 32 bits. It runs the whole test suite at 386 (goldens
# and pinned stdout included), then each gated workload's untraced
# bench child built for 386 and for the host, and fails unless their
# event counts and digests agree. It compares with the host build of
# the same tree, not with bench/'s pinned digests, so a stale pin does
# not fail it. It takes about a minute, so it is in ci, not tier-1.
cross-arch:
	GOARCH=386 $(GO) test ./...
	@set -e; d=.bench_build/cross-arch; rm -rf $$d; mkdir -p $$d; \
	$(GO) build -o $$d/host ./bench; GOARCH=386 $(GO) build -o $$d/386 ./bench; \
	for w in $(WORKLOADS); do \
	  for a in host 386; do $$d/$$a -child $$w -trace 0 | tr ',' '\n' | grep -E '^"(events|digest)":' > $$d/$$a-$$w; done; \
	  if ! cmp -s $$d/host-$$w $$d/386-$$w; then echo "cross-arch: $$w differs at 386:"; diff $$d/host-$$w $$d/386-$$w; exit 1; fi; \
	  echo "cross-arch: $$w $$(tr '\n' ' ' < $$d/386-$$w)at host and 386"; \
	done

# The race detector runs over every package: the shared sweep runner
# (internal/sim) and the batched figure runners (internal/experiments)
# contain the real concurrency, but transport/netem/lb must also stay
# clean when exercised from -race test binaries.
race:
	$(GO) test -race ./...

# bench-all runs every benchmark in every package once — a quick "do
# they all still run" check that `ci` includes, so a rung `bench-pair
# B=` pairs cannot break unseen. (./... matters: the root package alone
# would silently skip BenchmarkSimlint in internal/lint and any future
# non-root benchmark.)
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-pair is the paired measurement a performance claim rests on
# (choosing-metrics: alternate sides, medians, quartiles, pair wins),
# and the only before/after record: `make bench-pair REF=<commit>
# W=<workload> N=<pairs>` builds ./bench at REF (exported under
# .bench_build/) and at the working tree, runs N pairs of `-child $(W)
# -trace 0`, swapping which side goes first, and prints every run, then
# per workload each side's median and quartiles and the pair wins for
# wall_s, cpu_s and peak_rss_mb, and each side's median gc_cycles and
# mallocs — exact counts that repeat per seed, so a memory claim shows
# its mechanism in the same session. W=all takes the three gated
# workloads through one interleaved session. With B=<regexp> it pairs
# the root package's testing.B benchmarks instead: it builds the test
# binary (`go test -c`) on both sides, runs N pairs of `-test.run '^$'
# -test.bench $(B)` and prints each benchmark's ns/op the same way.
# (Write a $ in B as $$.)
# Keep the box otherwise idle.
REF ?= HEAD~1
W ?= fattree-mice
B ?=
N ?= 10
WORKLOADS = leafspine-websearch fattree-mice scheme-sweep

# build-pair exports $(REF) into $(1)/src and builds its package $(2)
# with `go $(3)` as $(1)/ref, and the working tree's as $(1)/head.
build-pair = rm -rf $(1); mkdir -p $(1)/src; git archive $(REF) | tar -x -C $(1)/src; \
	(cd $(1)/src && $(GO) $(3) -o ../ref $(2)); rm -rf $(1)/src; $(GO) $(3) -o $(1)/head $(2)

# pairs runs the command $(1) N times for each name w in $$ws and each
# side s, swapping which side goes first every pair i; $$d/$$s is the
# side's binary. Each run prints "i name side value…" lines, which go to
# stdout and to $$d/runs.
pairs = for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) = 1 ]; then order="ref head"; else order="head ref"; fi; \
	  for w in $$ws; do for s in $$order; do $(1) | tee -a $$d/runs; done; done; \
	done

# pair-stats summarises $$d/runs. The k-th word of $(1) names the k-th
# value column (field k + 3). Per name and column, in first-seen order,
# it prints each side's median, quartiles and n, in how many pairs each
# side was lower, and the verdict: the head/ref median ratio, and
# "resolved" when head was lower in at least nine tenths of the pairs
# and the medians differ by more than ref's interquartile range
# (choosing-metrics §8), else "unresolved"; for a column named in $(2)
# (exact counts), only each side's median; a column named - it skips.
# $(3) formats a value.
pair-stats = awk -v N=$(N) -v cols="$(1)" -v counts="$(2)" -v F="$(3)" ' \
	  function q(k, s, p,   n, i, j, t, a, h, f) { \
	    n = 0; for (i = 1; i <= N; i++) a[++n] = v[k, s, i]; \
	    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } \
	    h = (n - 1) * p + 1; f = int(h); return f < n ? a[f] + (h - f) * (a[f + 1] - a[f]) : a[n] } \
	  BEGIN { nc = split(cols, col, " "); split(counts, c, " "); for (j in c) count[c[j]]; wd = 19 } \
	  { for (j = 1; j <= nc; j++) v[$$2 SUBSEP col[j], $$3, $$1] = $$(j + 3); \
	    if (!($$2 in seen)) { seen[$$2]; name[++nn] = $$2; if (length($$2) > wd) wd = length($$2) } } \
	  END { split("ref head", side, " "); row = "%-" wd "s %-11s "; \
	    for (k = 1; k <= nn; k++) for (j = 1; j <= nc; j++) { m = col[j]; key = name[k] SUBSEP m; if (m == "-") continue; \
	      if (m in count) { printf row "ref median %d  head median %d\n", name[k], m, q(key, "ref", .5), q(key, "head", .5); continue } \
	      for (l = 1; l <= 2; l++) printf row "%-4s median " F "  q1 " F "  q3 " F "  n %d\n", name[k], m, side[l], \
	        q(key, side[l], .5), q(key, side[l], .25), q(key, side[l], .75), N; \
	      win = 0; loss = 0; for (i = 1; i <= N; i++) { win += v[key, "head", i] < v[key, "ref", i]; loss += v[key, "head", i] > v[key, "ref", i] } \
	      printf row "head better in %d of %d pairs, ref in %d\n", name[k], m, win, N, loss; \
	      rm = q(key, "ref", .5); dm = q(key, "head", .5) - rm; if (dm < 0) dm = -dm; \
	      ok = win * 10 >= 9 * N && dm > q(key, "ref", .75) - q(key, "ref", .25); \
	      printf row "head/ref median %.3f  %s\n", name[k], m, (rm ? q(key, "head", .5) / rm : 0), (ok ? "resolved" : "unresolved") } }' $$d/runs

# bench-run, workload-run and setup-run are one run of side $$s in pair
# $$i (of workload $$w) for bench-pair B=, bench-pair W= and
# bench-setup-pair, printed as lines of $$d/runs. bench-run names no
# workload, so B= sets ws to the one placeholder -.
bench-run = $$d/$$s -test.run '^$$' -test.bench '$(B)' -test.timeout 30m \
	| awk -v i=$$i -v s=$$s '/^Benchmark/ { for (j = 3; j <= NF; j++) if ($$j == "ns/op") print i, $$1, s, $$(j - 1) }'
workload-run = $$d/$$s -child $$w -trace 0 | tr ',' '\n' | awk -F: -v w=$$w -v s=$$s -v i=$$i \
	'/^"(wall_s|cpu_s|peak_rss_mb|offered_bytes|gc_cycles|mallocs)"/ { gsub(/"/, "", $$1); v[$$1] = $$2 } \
	 END { printf "%d %s %s %.3f %.3f %.1f %.6f %d %d\n", i, w, s, v["wall_s"], v["cpu_s"], v["peak_rss_mb"], v["offered_bytes"] / 1e9, v["gc_cycles"], v["mallocs"] }'
setup-run = { rm -rf $$d/out; $$d/$$s -workload $$w -trace 0 -reps 1 -out $$d/out > /dev/null; \
	awk -v w=$$w -v s=$$s -v i=$$i '/"setup_s"/ { f = 1 } f && /"value"/ { gsub(/[",]/, "", $$2); printf "%d %s %s %.6f\n", i, w, s, $$2; exit }' \
	  $$d/out/results-$$w-seed*.json; }

bench-pair:
	@set -e; d=.bench_build/pair; \
	if [ -n '$(B)' ]; then \
	  $(call build-pair,$$d,.,test -c); ws=-; \
	  $(call pairs,$(bench-run)); \
	  $(call pair-stats,ns/op,,%.2f); \
	else \
	  $(call build-pair,$$d,./bench,build); \
	  ws="$(W)"; if [ "$$ws" = all ]; then ws="$(WORKLOADS)"; fi; \
	  $(call pairs,$(workload-run)); \
	  $(call pair-stats,wall_s cpu_s peak_rss_mb - gc_cycles mallocs,gc_cycles mallocs,%.3f); \
	fi

# bench-setup-pair is bench-pair for set-up time: `make bench-setup-pair
# REF=<commit> W=<workload|all> N=<pairs>` builds both sides the same
# way, runs N pairs of `-workload $(W) -trace 0 -reps 1`, swapping which
# side goes first, reads setup_s (the fastest of the run's set-up
# samples) from each side's results file, and prints every run, then per
# workload each side's median and quartiles and the pair wins. Each run
# still makes one timed repetition, about 5 s; keep the box otherwise
# idle.
bench-setup-pair:
	@set -e; d=.bench_build/setup-pair; $(call build-pair,$$d,./bench,build); \
	ws="$(W)"; if [ "$$ws" = all ]; then ws="$(WORKLOADS)"; fi; \
	$(call pairs,$(setup-run)); \
	$(call pair-stats,setup_s,,%.6f)

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
	@set -e; d=.bench_build/figures; $(call build-pair,$$d,./cmd/experiments,build); \
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

# census is the reachability census: it builds the five mains with
# inlining off (-gcflags=all=-l, so every function a main calls keeps
# its own symbol), lists their text symbols with `go tool nm`, and prints
# each function declared in internal/ (tests and testdata aside) that
# none of them links: code only tests reach. Generic functions are
# matched with their instantiations' type arguments stripped. It skips
# the test seams named in CENSUS_KEEP, each kept for the reason above
# its line, and ends with a count; it does not fail.
CENSUS_MAINS = ./cmd/tlbsim ./cmd/experiments ./cmd/simlint ./bench ./examples/quickstart
# Observers of live state that tests assert on.
CENSUS_KEEP = core.(*TLB).QTh core.(*TLB).ActiveFlows eventsim.(*Sim).Pending eventsim.(*Sim).Step
CENSUS_KEEP += netem.(*Queue).Bytes transport.(*Sender).Size transport.(*Sender).Done transport.(*Sender).Cwnd
CENSUS_KEEP += stats.(*Sample).N stats.(*Histogram).N stats.(*QuantileSketch).N stats.(*QuantileSketch).Collapsed
# Pool counters the allocation tests read.
CENSUS_KEEP += netem.(*PacketPool).Allocated netem.(*PacketPool).Recycled netem.(*PacketPool).Idle
CENSUS_KEEP += transport.(*FlowPool).Recycled transport.(*FlowPool).Idle
# How a test reads the flows of a compiled spec's replayable source.
CENSUS_KEEP += workload.Collect
# The §4 model's Eq. 6 and Eq. 8, checked by the model tests; the
# queueing oracles (ROADMAP item 4) are their callers to come.
CENSUS_KEEP += model.PKWait model.Params.FCTShort
# The mean queueing delay the ⚠️-verdict explanations (ROADMAP item 5)
# are to report.
CENSUS_KEEP += sim.(*Result).MeanQueueDelay

census:
	@set -e; d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	for m in $(CENSUS_MAINS); do $(GO) build -gcflags=all=-l -o $$d/bin/$$(basename $$m) $$m; done; \
	$(GO) tool nm $$d/bin/* | awk ' \
	  function strip(s,   o, i, c, depth) { for (i = 1; i <= length(s); i++) { c = substr(s, i, 1); \
	    if (c == "[") depth++; else if (c == "]") depth--; else if (depth == 0) o = o c } return o } \
	  { sub(/^[^\t]*\t/, ""); sub(/^ *[0-9a-f]* [A-Za-z] /, "") } \
	  /^tlb\/internal\// { sub(/^tlb\/internal\//, ""); print index($$0, "[") ? strip($$0) : $$0 }' > $$d/linked; \
	find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort | xargs awk -v linked=$$d/linked -v keep='$(CENSUS_KEEP)' ' \
	  BEGIN { while ((getline l < linked) > 0) have[l]; n = split(keep, k, " "); for (i = 1; i <= n; i++) kept[k[i]] } \
	  function check(  len) { if (name == "init" || sym in have || sym in kept) return; \
	    len = FNR - start + 1; printf "%s:%d %s (%d lines)\n", FILENAME, start, sym, len; lines += len; count++ } \
	  FNR == 1 { pkg = FILENAME; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$$/, "", pkg) } \
	  /^func / { s = substr($$0, 6); recv = ""; \
	    if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2); \
	      m = split(r, a, " "); t = a[m]; sub(/\[.*/, "", t); recv = t ~ /^\*/ ? "(" t ")." : t "." } \
	    name = s; sub(/[[(].*/, "", name); sym = pkg "." recv name; start = FNR; \
	    if ($$0 ~ /}$$/) check(); else open = 1; next } \
	  open && /^}/ { check(); open = 0 } \
	  END { printf "census: %d functions (%d lines) only tests reach, %d kept seams skipped\n", count, lines, n }'

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

# ci is the gate: static checks (gofmt, vet, simlint), the full test
# suite, the zero-allocation gates, the output-identity contract, the
# race detector over all packages, the 386 run, every benchmark body
# once, and the end-to-end smoke run.
ci: build fmt-check vet lint fma-check test alloc-gates identity race cross-arch bench-all specs examples smoke
