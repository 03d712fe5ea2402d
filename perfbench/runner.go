package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
)

// spec fixes one workload's shape.
type spec struct {
	name    string
	clients int
	// round is the operations one client runs per round; warm is the
	// discarded warm-up per client.
	round, warm int
	// rate is the workload's throughput in operations per second on the
	// 2-vCPU host the benchmark was sized on. A run of s seconds executes
	// the fixed number of rounds that takes s seconds at this rate, so
	// every run of a seed does the same work however fast the code is.
	rate       float64
	open       func(tr *tracer) (*system, error)
	generators func(seed int64) []generator
}

// rounds is the number of rounds a run of the given length executes.
func (sp spec) rounds(seconds float64) int {
	return max(1, int(math.Ceil(seconds*sp.rate/float64(sp.clients*sp.round))))
}

// minReads keeps p99 at 10 or more samples beyond it.
const minReads = 1000

// phase is one measured pass over a system: a warm-up, then a fixed number
// of rounds of the seeded operation stream.
type phase struct {
	rounds          int
	attempted       int
	reads, writes   int
	failed          int
	readLat         []time.Duration
	roundOpsS       []float64
	cpu             time.Duration
	allocBytes      uint64
	allocObjects    uint64
	gcCPU, totalCPU float64
	digests         [][]uint64 // per client, per measured op
	before, after   counters
	// calib holds the calibration measured before each round.
	calib []time.Duration
}

func (p *phase) ops() int { return p.reads + p.writes }

// client is one closed-loop caller.
type client struct {
	src *gremlin.Source
	w   *writer
	tr  *tracer
	gen generator

	// Filled by run for the ops it measures.
	attempted     int
	reads, writes int
	readLat       []time.Duration
	digests       []uint64
	failed        int
	err           error
}

// do runs one operation, timing it from the caller's side.
func (c *client) do(o op) (any, time.Duration, error) {
	ctx, id := c.tr.beginOp(context.Background())
	kind := spanGremlin
	if o.kind.isWrite() {
		kind = spanDML
	}
	var res any
	var err error
	start := time.Now()
	if o.kind.isWrite() {
		res, err = c.w.exec(o)
	} else {
		res, err = gremlin.RunScriptCtx(ctx, c.src, o.script, nil)
	}
	d := time.Since(start)
	if id >= 0 {
		end := c.tr.now()
		c.tr.add(span{op: id, kind: kind, start: end - int64(d), end: end})
	}
	return res, d, err
}

// run executes ops in order and checks each answer as soon as it returns,
// outside the timed call, so no result outlives its check. It stops at the
// first failed operation or wrong answer: the oracle has already applied
// every write of the stream, so later answers could not be judged.
func (c *client) run(ops []op, measured bool) {
	for _, o := range ops {
		if measured {
			c.attempted++
		}
		res, d, err := c.do(o)
		if err != nil {
			c.failed++
			c.err = fmt.Errorf("operation failed: %w", err)
			return
		}
		dg, err := check(o, res)
		if err != nil {
			c.err = errWrongAnswer{err}
			return
		}
		if !measured {
			continue
		}
		c.digests = append(c.digests, dg)
		if o.kind.isWrite() {
			c.writes++
		} else {
			c.reads++
			c.readLat = append(c.readLat, d)
		}
	}
}

// runClients runs each client's ops concurrently and waits for all.
func runClients(clients []*client, ops [][]op, measured bool) error {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			c.run(ops, measured)
		}(c, ops[i])
	}
	wg.Wait()
	for i, c := range clients {
		if c.err != nil {
			return fmt.Errorf("client %d: %w", i, c.err)
		}
	}
	return nil
}

// errWrongAnswer marks a run whose system returned an answer the oracle
// rejects.
type errWrongAnswer struct{ err error }

func (e errWrongAnswer) Error() string { return "wrong answer: " + e.err.Error() }
func (e errWrongAnswer) Unwrap() error { return e.err }

// runPhase warms the system up, then runs the given number of rounds, and
// more while fewer than reads reads were measured. A round's operations are
// generated before it starts, and a collection is forced, so neither
// generation nor the previous round's garbage lands in its timing; then the
// host is calibrated.
func runPhase(sp spec, sys *system, cal *calibrator, seed int64, tr *tracer, rounds, reads int) (*phase, error) {
	gens := sp.generators(seed)
	clients := make([]*client, sp.clients)
	for i := range clients {
		clients[i] = &client{src: sys.src, tr: tr, gen: gens[i]}
		if sys.db != nil {
			w, err := newWriter(sys.db, 10)
			if err != nil {
				return nil, err
			}
			clients[i].w = w
		}
	}
	p := &phase{}
	gen := func(n int) [][]op {
		ops := make([][]op, len(clients))
		for i, c := range clients {
			ops[i] = make([]op, n)
			for k := range ops[i] {
				ops[i][k] = c.gen.next()
			}
		}
		return ops
	}
	collect := func() {
		p.attempted, p.reads, p.writes, p.failed = 0, 0, 0, 0
		p.readLat, p.digests = nil, nil
		for _, c := range clients {
			p.attempted += c.attempted
			p.reads += c.reads
			p.writes += c.writes
			p.failed += c.failed
			p.readLat = append(p.readLat, c.readLat...)
			p.digests = append(p.digests, c.digests)
		}
	}

	if err := runClients(clients, gen(sp.warm), false); err != nil {
		collect()
		return p, err
	}
	if tr != nil {
		tr.on.Store(true)
	}
	p.before = sys.counters()
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	for p.rounds < rounds || p.reads < reads {
		ops := gen(sp.round)
		runtime.GC()
		p.calib = append(p.calib, cal.measure())
		metrics.Read(samples)
		m0 := sampleValues(samples)
		cpu0 := cpuTime()
		start := time.Now()
		err := runClients(clients, ops, true)
		d := time.Since(start)
		p.cpu += cpuTime() - cpu0
		metrics.Read(samples)
		m1 := sampleValues(samples)
		p.allocBytes += uint64(m1[0] - m0[0])
		p.allocObjects += uint64(m1[1] - m0[1])
		p.gcCPU += m1[2] - m0[2]
		p.totalCPU += m1[3] - m0[3]
		p.rounds++
		p.roundOpsS = append(p.roundOpsS, float64(sp.clients*sp.round)/d.Seconds())
		collect()
		if err != nil {
			return p, err
		}
	}
	p.after = sys.counters()
	if tr != nil {
		tr.on.Store(false)
	}
	return p, nil
}

func sampleValues(s []metrics.Sample) [4]float64 {
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// cpuTime is the process's user plus system time. Time the hypervisor
// steals from the guest is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank quantile of the samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB reports the live heap after forced collections, with the system
// still reachable. The backend's read caches are flushed first: their fill
// level at any instant depends on where the generational eviction cycle
// stands, which moves the heap by up to a third from one seed to the next.
// The second collection empties the sync.Pool victim caches, whose contents
// depend on the last operations run.
func heapMB(sys *system) float64 {
	if f, ok := sys.backend.(graph.CacheFlusher); ok {
		f.FlushCaches()
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(sys)
	return float64(m.HeapAlloc) / (1 << 20)
}
