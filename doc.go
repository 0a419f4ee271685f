// Package tlb is a from-scratch Go reproduction of "TLB: Traffic-aware
// Load Balancing with Adaptive Granularity in Data Center Networks"
// (Hu et al., ICPP 2019), including the packet-level network simulator
// it is evaluated on.
//
// The implementation lives under internal/:
//
//   - internal/eventsim — discrete-event engine and deterministic RNG
//   - internal/netem    — packets, ECN drop-tail queues, links, ports
//   - internal/topology — one up/down-routed fabric: leaf-spine, fat-tree
//   - internal/transport— DCTCP/TCP endpoints (the paper's traffic)
//   - internal/lb       — ECMP, RPS, Presto, LetFlow, DRILL baselines
//   - internal/core     — TLB itself (the paper's contribution)
//   - internal/model    — the paper's §4 queueing model (Eq. 1–9)
//   - internal/workload — web-search/data-mining CDFs, Poisson arrivals
//   - internal/sim      — the experiment runner and result reduction
//   - internal/experiments — one function per paper figure
//
// Entry points: cmd/tlbsim runs scenario spec files (presets under
// cmd/tlbsim/specs); cmd/experiments regenerates every figure;
// examples/ hold runnable walkthroughs; the benchmarks in this
// directory regenerate each figure under the standard go test -bench
// machinery.
package tlb
