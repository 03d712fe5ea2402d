package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"
)

// tiny keeps the tests fast: a few hundred vertices, one set-up.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.5, trace: trace, vertices: 300, setups: 1, out: t.TempDir()}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	sort.Strings(workloads)
	if want := append([]string(nil), workloadNames...); !reflect.DeepEqual(workloads, want) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", workloads, want)
	}
	return endToEnd, perLayer
}

// TestWorkloadsEndToEnd runs every workload untraced and traced and checks
// that each prints exactly the metrics BENCHMARK.json declares.
func TestWorkloadsEndToEnd(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			want, reads := endToEnd, minReads
			if trace {
				want, reads = perLayer, 1
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < reads {
				t.Fatalf("%s trace=%v: %+v", w, trace, res)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v metrics\n got %v\nwant %v", w, trace, got, want)
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// perturbed changes the expected answer of the first read at or after the
// at-th op it yields.
type perturbed struct {
	generator
	n, at int
	done  bool
}

func (p *perturbed) next() op {
	o := p.generator.next()
	p.n++
	if p.n < p.at || p.done || o.kind.isWrite() {
		return o
	}
	p.done = true
	if o.kind == opGetNode || o.kind == opGetLink || o.kind == opGetLinkList {
		o.want++
	} else {
		o.count++
	}
	return o
}

// TestOracleRejectsPerturbedAnswer changes one expected value after the
// warm-up on each workload and expects the run to fail as incorrect.
func TestOracleRejectsPerturbedAnswer(t *testing.T) {
	d := newDataset(300)
	for _, name := range workloadNames {
		sp, err := workload(d, name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sp.open(nil)
		if err != nil {
			t.Fatal(err)
		}
		gens := sp.generators
		sp.generators = func(seed int64) []generator {
			gs := gens(seed)
			gs[0] = &perturbed{generator: gs[0], at: sp.warm + 3}
			return gs
		}
		p, err := runPhase(sp, sys, newCalibrator(1), 1, nil, 1, 0)
		sys.close()
		var wrong errWrongAnswer
		if !errors.As(err, &wrong) {
			t.Errorf("%s: perturbed answer gave err %v", name, err)
		}
		if res := outcomeOf(p, err); res.Correct {
			t.Errorf("%s: perturbed run reported correct", name)
		}
	}
}

// TestGremlinSelfTimeUsesUnion checks that backend calls overlapping in
// parallel chunks are subtracted once, never driving self time negative.
func TestGremlinSelfTimeUsesUnion(t *testing.T) {
	tr := newTracer()
	tr.add(span{op: 0, kind: spanGremlin, start: 0, end: 100})
	tr.add(span{op: 0, kind: spanBackend, start: 10, end: 60, sqlNs: 30})
	tr.add(span{op: 0, kind: spanBackend, start: 20, end: 90, sqlNs: 80})
	tr.add(span{op: 0, kind: spanBackend, start: 30, end: 40})
	tr.add(span{op: 1, kind: spanDML, start: 100, end: 107})
	st := tr.totals()
	if st.gremlinSelf != 20 {
		t.Errorf("gremlin self = %d, want 20 (100 minus the union [10,90])", st.gremlinSelf)
	}
	if st.backendCalls != 3 || st.backendSelf != 20+0+10 || st.sqlExec != 110 {
		t.Errorf("backend totals %+v", st)
	}
	if len(st.dml) != 1 || st.dml[0] != 7 {
		t.Errorf("dml spans %v", st.dml)
	}
}
