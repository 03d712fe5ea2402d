package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is shared with other guests. Their load
// changes this guest's speed by up to 50 % within minutes, in wall time and
// CPU time alike, mostly without showing up as steal. So every set-up and
// every round is preceded by a calibration: a fixed load, built from the
// standard library only, timed on every CPU while no operation runs. The
// end-to-end times are then reported at the reference host's speed. No
// change to db2graph can move the calibration load.

// calibRef sets the scale: a round figure just under the calibration
// median of 6.2–6.8 ms measured on the reference host, a 2-vCPU KVM guest.
const calibRef = 6 * time.Millisecond

// calibRuns is how many times the load is timed per calibration; the median
// is kept.
const calibRuns = 7

// calibrator holds one load per CPU, built once so that timing it
// allocates nothing and no collection runs inside it.
type calibrator struct {
	loads []*calibLoad
	sink  int64
}

type calibLoad struct {
	keys, sorted []string
	index        map[string]int64
	list         *calibNode
}

type calibNode struct {
	next *calibNode
	v    int64
}

func newCalibrator(cpus int) *calibrator {
	c := &calibrator{}
	for i := 0; i < cpus; i++ {
		const n = 1 << 14
		l := &calibLoad{index: make(map[string]int64, n), sorted: make([]string, n)}
		for k := int64(0); k < n; k++ {
			key := strconv.FormatInt(k*7919%100003, 10)
			l.keys = append(l.keys, key)
			l.index[key] = k
		}
		for k := 0; k < 4*n; k++ {
			l.list = &calibNode{next: l.list, v: int64(k)}
		}
		c.loads = append(c.loads, l)
	}
	return c
}

// run times the load on every CPU at once.
func (c *calibrator) run() time.Duration {
	sums := make([]int64, len(c.loads))
	start := time.Now()
	var wg sync.WaitGroup
	for i, l := range c.loads {
		wg.Add(1)
		go func(i int, l *calibLoad) {
			defer wg.Done()
			copy(l.sorted, l.keys)
			sort.Strings(l.sorted)
			var s int64
			for _, k := range l.sorted {
				s += l.index[k]
			}
			for p := l.list; p != nil; p = p.next {
				s += p.v
			}
			sums[i] = s
		}(i, l)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		c.sink += s
	}
	return d
}

// measure returns the median of calibRuns timed runs.
func (c *calibrator) measure() time.Duration {
	ds := make([]time.Duration, calibRuns)
	for i := range ds {
		ds[i] = c.run()
	}
	return quantile(ds, 0.5)
}

// speed is the host's speed relative to the reference host over the given
// calibrations: above 1 when this host ran faster.
func speed(calib []time.Duration) float64 {
	return float64(calibRef) / float64(quantile(calib, 0.5))
}
