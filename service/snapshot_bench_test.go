package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkSnapshot times one snapshot of a durable server holding 64
// wordcount sessions, each with a history of 10 or of 1,000 acknowledged
// ops, and reports the snapshot's payload in B/snapshot. Before each
// snapshot, untimed, one write toggles the seal of the next session in
// turn, so one session changed since the last snapshot. It uses only what
// the op-history snapshot format had too, so it runs on both.
func BenchmarkSnapshot(b *testing.B) {
	spec, err := os.ReadFile(filepath.Join("..", "internal", "spec", "testdata", "wordcount.blazes"))
	if err != nil {
		b.Fatal(err)
	}
	create := CreateRequest{Spec: string(spec)}
	const sessions = 64
	for _, history := range []int{10, 1000} {
		b.Run(fmt.Sprintf("ops=%d", history), func(b *testing.B) {
			dir := b.TempDir()
			srv, err := Open(Options{JournalDir: dir, MaxSessions: sessions})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			post := func(path string, body any) {
				data, err := json.Marshal(body)
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(data)))
				if rec.Code/100 != 2 {
					b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
				}
			}
			rng := rand.New(rand.NewSource(1))
			for i := 1; i <= sessions; i++ {
				post("/v1/sessions", create)
				scratch, err := create.NewSession()
				if err != nil {
					b.Fatal(err)
				}
				var ops []MutateOp
				for len(ops) < history {
					if op := randomOp(rng); op.Apply(scratch) == nil {
						ops = append(ops, op)
					}
				}
				post(fmt.Sprintf("/v1/sessions/s%d/mutate", i), MutateRequest{Ops: ops})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				toggle := MutateOp{Op: "seal", Stream: "tweets"}
				if i/sessions%2 == 0 {
					toggle.Key = []string{"batch"}
				}
				srv.snapEvery = SnapshotEvery
				post(fmt.Sprintf("/v1/sessions/s%d/mutate", i%sessions+1), MutateRequest{Ops: []MutateOp{toggle}})
				srv.snapEvery = 1
				b.StartTimer()
				srv.maybeSnapshot()
			}
			b.StopTimer()
			snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			if err != nil || len(snaps) == 0 {
				b.Fatalf("no snapshot written (%v)", err)
			}
			fi, err := os.Stat(snaps[len(snaps)-1])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fi.Size()), "B/snapshot")
		})
	}
}
