package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"blazes/internal/sim"
)

// calibrate times a fixed piece of work that touches none of the program —
// FNV over 64 MB and a sort of a million integers — and returns the fastest
// of three goes in milliseconds (the fastest is the one least disturbed by
// the machine's other tenants). Run before and after a measurement it tells
// machine drift from a change in the program; across machines it normalizes
// timings.
func calibrate() float64 {
	best := math.Inf(1)
	buf := make([]byte, 1<<20)
	ints := make([]int, 1_000_000)
	for round := 0; round < 3; round++ {
		start := time.Now()
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		h := fnv.New64a()
		for i := 0; i < 64; i++ {
			h.Write(buf)
		}
		rng := rand.New(rand.NewSource(int64(h.Sum64() & 0xffff)))
		for i := range ints {
			ints[i] = rng.Int()
		}
		sort.Ints(ints)
		best = min(best, float64(time.Since(start))/1e6)
	}
	return best
}

// probeHost records what the machine under the run looks like: processor
// counts, the cost of handing work to the simulator's worker pool, and the
// cost of a real 4 KB write+fsync in the directory the journals live in —
// the last says whether the disk honoured fsync at all.
func probeHost(e env, rec *recorder) error {
	rec.observe("host.nproc", float64(runtime.NumCPU()))
	rec.observe("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	pool := sim.NewPool(runtime.NumCPU())
	for i := 0; i < e.scale.probeN; i++ {
		start := time.Now()
		pool.Map(runtime.NumCPU(), func(int) {})
		rec.observe("sim.pool_map_us", float64(time.Since(start))/1e3)
	}

	f, err := os.Create(filepath.Join(e.tmp, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 4096)
	for i := 0; i < e.scale.probeN; i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		rec.observe("host.fsync_p50_ms", float64(time.Since(start))/1e6)
	}
	return nil
}

// writeArtifacts writes samples.json (every raw latency sample, by workload
// and class) and, for a traced run, trace.json (every span with its self
// time, and every raw layer observation) into dir.
func writeArtifacts(dir, workload string, sets sampleSets, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "samples.json"), sets); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	type spanOut struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(rec.spans)
	spans := make([]spanOut, len(rec.spans))
	for i, s := range rec.spans {
		spans[i] = spanOut{s, self[i]}
	}
	return writeJSON(filepath.Join(dir, "trace.json"), map[string]any{
		"workload":     workload,
		"spans":        spans,
		"observations": rec.obs,
	})
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
