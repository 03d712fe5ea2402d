package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// env records what a run ran on, so a run the host disturbed can be told
// apart: steal is the CPU time the hypervisor took from this guest while
// the run lasted, summed over all CPUs.
type env struct {
	start      time.Time
	stealStart int64
}

func startEnv() *env { return &env{start: time.Now(), stealStart: stealTicks()} }

func (e *env) finish() map[string]any {
	wall := time.Since(e.start).Seconds()
	steal := float64(stealTicks()-e.stealStart) / clockTicks
	return map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"commit":      commit(),
		"cpu_model":   cpuModel(),
		"wall_s":      wall,
		"steal_s":     steal,
		"steal_share": steal / (wall * float64(runtime.NumCPU())),
	}
}

// clockTicks is USER_HZ, the unit of /proc/stat; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// stealTicks reads the aggregate steal column of /proc/stat (0 where
// unavailable).
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fields[8], 10, 64)
	return v
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, or "unknown" when it
// was built outside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
