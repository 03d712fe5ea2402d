package gremlin

import (
	"time"

	"db2graph/internal/telemetry"
)

// stepStats accumulates the cost of one step over a query. Repeat bodies and
// sub-traversals run the same step many times, so the counters sum over
// every invocation; a nested step's summed duration is part of its parent
// step's.
type stepStats struct {
	in, out, calls int64
	dur            time.Duration
}

// profiler records per-step costs for a single traversal execution. It is
// keyed by step pointer identity: ExecuteCtx clones the plan per run, so
// every executed step is a unique pointer. A query runs on one goroutine,
// so the profiler needs no locking. A nil profiler disables instrumentation
// with a single branch in runSteps — there is no per-traverser cost.
type profiler struct {
	stats map[Step]*stepStats
}

func newProfiler() *profiler {
	return &profiler{stats: make(map[Step]*stepStats)}
}

func (p *profiler) get(s Step) *stepStats {
	st := p.stats[s]
	if st == nil {
		st = &stepStats{}
		p.stats[s] = st
	}
	return st
}

// report renders the accumulated stats as a telemetry.Profile, walking the
// executed plan in order and indenting steps nested inside
// repeat()/where()/not()/union() bodies. A nested step's time is included in
// its parent's.
func (p *profiler) report(steps []Step, total time.Duration) *telemetry.Profile {
	pr := &telemetry.Profile{Query: PlanString(steps), Total: total}
	p.walk(steps, 0, pr)
	return pr
}

func (p *profiler) walk(steps []Step, depth int, pr *telemetry.Profile) {
	for _, s := range steps {
		st := p.stats[s]
		if st == nil {
			continue // never executed (e.g. an until() that never ran)
		}
		pr.Steps = append(pr.Steps, telemetry.StepProfile{
			Name:  describeStep(s),
			Depth: depth,
			In:    st.in,
			Out:   st.out,
			Calls: st.calls,
			Dur:   st.dur,
		})
		switch x := s.(type) {
		case *RepeatStep:
			p.walk(x.Body, depth+1, pr)
			p.walk(x.Until, depth+1, pr)
		case *WhereStep:
			p.walk(x.Sub, depth+1, pr)
		case *UnionStep:
			for _, b := range x.Branches {
				p.walk(b, depth+1, pr)
			}
		}
	}
}
