package chaos

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// preparedOf returns what a workload value has prepared for all of its runs
// (nil for a workload that prepares nothing, or has not run yet).
func preparedOf(w Workload) any {
	switch w := w.(type) {
	case *WordcountWorkload:
		return w.truth.v
	case *BloomReportWorkload:
		return w.prepared.v
	case *AdNetworkWorkload:
		return w.prepared.v
	case *GeneratedWorkload:
		return w.model.v
	}
	return nil
}

// deepText writes everything reachable from v — through pointers, unexported
// fields, interfaces, maps in key order — as text: a deep copy in the one
// form reflection can take of values it may read but not set. Two texts are
// equal exactly when nothing reachable changed.
func deepText(b *strings.Builder, v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("nil;")
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			fmt.Fprintf(b, "*%v;", v.IsNil())
			return
		}
		seen[v.Pointer()] = true
		b.WriteByte('&')
		deepText(b, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil;")
			return
		}
		b.WriteString(v.Elem().Type().String())
		deepText(b, v.Elem(), seen)
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(v.Type().Field(i).Name + ":")
			deepText(b, v.Field(i), seen)
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			deepText(b, v.Index(i), seen)
		}
		b.WriteByte(']')
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var e strings.Builder
			deepText(&e, it.Key(), seen)
			e.WriteString("=>")
			deepText(&e, it.Value(), seen)
			entries = append(entries, e.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(b, "map%q", entries)
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		fmt.Fprintf(b, "%v@%x;", v.Kind(), v.Pointer())
	case reflect.String:
		fmt.Fprintf(b, "%q;", v.String())
	case reflect.Bool:
		fmt.Fprintf(b, "%v;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(b, "%d;", v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%v;", v.Float())
	default:
		panic("deepText: " + v.Kind().String())
	}
}

func snapshot(v any) string {
	var b strings.Builder
	deepText(&b, reflect.ValueOf(v), map[uintptr]bool{})
	return b.String()
}

// TestScheduleCannotSeeItsNeighbours holds what a workload value shares
// between its runs to the rule the harness states: built once, read-only
// from then on. For every suite workload and a generated one, under every
// mechanism it supports and every default fault plan, the outcomes of seeds
// 1…16 are the same whether the schedules run in ascending order, in
// descending order, with another workload's runs in between, through
// RunCell on four workers, or each on a workload value of its own — the
// unprepared baseline, which is what holds the prepared plans to the
// behaviour of rebuilding everything per run. And no run leaves a mark: a
// deep snapshot of each prepared plan taken before the sweep equals one
// taken after it.
func TestScheduleCannotSeeItsNeighbours(t *testing.T) {
	const seeds = 16
	ctx := context.Background()
	suite := append(Suite(), Generated(40, 8))
	prepared := 0
	for wi, w := range suite {
		other := suite[(wi+1)%len(suite)]
		otherMech := dataflow.CoordSealed
		if !other.Supports(otherMech) {
			otherMech = dataflow.CoordNone
		}
		run := func(w Workload, seed int64, plan FaultPlan, mech dataflow.Coordination) Outcome {
			t.Helper()
			out, err := w.Run(seed, plan, mech)
			if err != nil {
				t.Fatalf("%s under %s/%s seed %d: %v", w.Name(), mech, plan.Name, seed, err)
			}
			return out
		}
		run(w, 1, DefaultPlans()[0], dataflow.CoordNone)
		before := snapshot(preparedOf(w))
		if v := reflect.ValueOf(preparedOf(w)); v.IsValid() && !v.IsZero() {
			prepared++
		}

		for _, mech := range dataflow.Coordinations() {
			if !w.Supports(mech) {
				continue
			}
			for _, plan := range DefaultPlans() {
				ascending := make([]Outcome, seeds)
				for i := range ascending {
					ascending[i] = run(w, int64(i+1), plan, mech)
				}
				check := func(how string, got []Outcome) {
					t.Helper()
					if !reflect.DeepEqual(got, ascending) {
						t.Errorf("%s under %s/%s: outcomes %s differ from the ascending run's", w.Name(), mech, plan.Name, how)
					}
				}

				descending := make([]Outcome, seeds)
				for i := seeds - 1; i >= 0; i-- {
					descending[i] = run(w, int64(i+1), plan, mech)
				}
				check("in descending order", descending)

				interleaved := make([]Outcome, seeds)
				for i := range interleaved {
					interleaved[i] = run(w, int64(i+1), plan, mech)
					run(other, int64(i+1), plan, otherMech)
				}
				check("interleaved with "+other.Name(), interleaved)

				cell := Cell{Workload: w.Name(), Mechanism: mech.String(), Plan: plan, Seeds: seeds}
				pooled, err := RunCell(ctx, w, cell, sim.NewPool(4), 1, seeds+1)
				if err != nil {
					t.Fatal(err)
				}
				check("from RunCell on 4 workers", pooled)

				fresh := make([]Outcome, seeds)
				for i := range fresh {
					own, err := LookupWorkload(w.Name())
					if err != nil {
						t.Fatal(err)
					}
					fresh[i] = run(own, int64(i+1), plan, mech)
				}
				check("on a workload value per seed", fresh)
			}
		}
		if after := snapshot(preparedOf(w)); after != before {
			t.Errorf("%s: the sweep changed the prepared plan", w.Name())
		}
	}
	if prepared < 4 {
		t.Errorf("%d workloads had a prepared plan to share, want at least 4: the test exercised nothing", prepared)
	}
}

// concurrencyProbe wraps a workload and records the most runs ever in
// flight at once. Its first few runs wait briefly for a second run to
// start, so a pool of two or more workers reaches a peak of 2 however the
// scheduler staggers them.
type concurrencyProbe struct {
	Workload
	active, peak, waited atomic.Int32
}

func (p *concurrencyProbe) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	n := p.active.Add(1)
	defer p.active.Add(-1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	if p.waited.Add(1) <= 4 {
		for deadline := time.Now().Add(50 * time.Millisecond); p.peak.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	return p.Workload.Run(seed, plan, mech)
}

// TestCheckSizesItsPoolFromGOMAXPROCS: a Check with a zero Config runs its
// schedules on one worker per GOMAXPROCS — at least two at once under
// GOMAXPROCS 4, strictly one after another under GOMAXPROCS 1.
func TestCheckSizesItsPoolFromGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, minPeak, maxPeak int32 }{{4, 2, 4}, {1, 1, 1}} {
		runtime.GOMAXPROCS(int(tc.procs))
		probe := &concurrencyProbe{Workload: SyntheticSet()}
		if _, err := Check(context.Background(), probe, Config{}); err != nil {
			t.Fatalf("GOMAXPROCS %d: Check: %v", tc.procs, err)
		}
		if got := probe.peak.Load(); got < tc.minPeak || got > tc.maxPeak {
			t.Errorf("GOMAXPROCS %d: %d schedules ran at once, want %d to %d", tc.procs, got, tc.minPeak, tc.maxPeak)
		}
	}
}
