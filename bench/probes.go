package main

import (
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// The probes time one layer's public functions in isolation, with the
// repetition's own inputs where the layer takes any. They run in the
// traced pass only, after the timed region, and explain the in-situ
// numbers: the in-situ cost of a packet hop is a port transit plus an
// event schedule-and-fire plus whatever the layers above add.

// runProbes returns each probe's cost in nanoseconds per operation.
func runProbes(scenarios []sim.Scenario, seed uint64) map[string]float64 {
	return map[string]float64{
		"eventsim.schedule_fire_ns": probeScheduleFire(seed),
		"netem.port_transit_ns":     probePortTransit(),
		"stats.fold_ns_per_flow":    probeFold(scenarios),
	}
}

// probeScheduleFire holds a fixed population of self-rescheduling
// timers with fabric-scale delays (1–100 µs) — the engine's steady
// state under a port-per-event fabric — and returns the cost of one
// schedule plus fire.
func probeScheduleFire(seed uint64) float64 {
	const (
		timers = 4096
		events = 1 << 21
	)
	s := eventsim.New()
	rng := eventsim.NewRNG(seed)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired >= events {
			s.Stop()
			return
		}
		s.After(units.Time(1+rng.Intn(100))*units.Microsecond, tick)
	}
	for i := 0; i < timers; i++ {
		s.After(units.Time(1+rng.Intn(100))*units.Microsecond, tick)
	}
	start := now()
	s.Run()
	return float64(now()-start) / float64(s.Executed())
}

// probePortTransit sends full-size packets through one port in
// queue-sized bursts and returns the cost of one transit: pool Get,
// Port.Send, the delivery event, pool Put.
func probePortTransit() float64 {
	const (
		bursts = 8192
		burst  = 128
	)
	s := eventsim.New()
	pool := netem.NewPacketPool()
	delivered := 0
	port := netem.NewPort(s,
		netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
		func(pkt *netem.Packet) {
			delivered++
			pool.Put(pkt)
		}, "probe")
	start := now()
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			pkt := pool.Get()
			pkt.Wire = 1500 * units.Byte
			if !port.Send(pkt) {
				pool.Put(pkt)
			}
		}
		s.Run()
	}
	return float64(now()-start) / float64(delivered)
}

// probeFold folds one completed record per offered flow through
// sim.StreamAgg.Fold — the stream side of the stats layer — and
// returns the cost per flow.
func probeFold(scenarios []sim.Scenario) float64 {
	var recs []transport.FlowStats
	record := func(f workload.Flow) {
		packets := int64(f.Size/(1460*units.Byte)) + 1
		recs = append(recs, transport.FlowStats{
			Size: f.Size, Start: f.Start, End: f.Start + units.Gbps.TxTime(f.Size), Done: true,
			Deadline: f.Deadline, BytesAcked: f.Size,
			PacketsRecv: packets, DelaySamples: packets,
		})
	}
	for i := range scenarios {
		sc := &scenarios[i]
		for _, f := range sc.Flows {
			record(f)
		}
		if sc.FlowSourceNew != nil {
			src := sc.FlowSourceNew()
			for f, ok := src.Next(); ok; f, ok = src.Next() {
				record(f)
			}
		}
	}
	const minFolds = 1 << 18
	agg := &sim.StreamAgg{}
	folds := 0
	start := now()
	for folds < minFolds {
		for i := range recs {
			fs := &recs[i]
			agg.Fold(fs, fs.Size <= 100*units.KB, fs.End)
		}
		folds += len(recs)
	}
	return float64(now()-start) / float64(folds)
}
