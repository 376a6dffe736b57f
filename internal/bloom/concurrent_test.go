package bloom

import (
	"fmt"
	"sync"
	"testing"

	"blazes/internal/sim"
)

// replicaModule builds the shared module shape used by the concurrency
// tests: a join over delivered edges with a grouped fanout.
func replicaModule() *Module {
	m := NewModule("rep")
	m.Input("edges", "src", "dst")
	m.Table("edge", "src", "dst")
	m.Table("path", "src", "dst")
	m.Scratch("fanout", "src", "cnt")
	m.Rule("edge", Instant, Scan("edges"))
	m.Rule("path", Instant, Scan("edge"))
	m.Rule("path", Instant,
		Project(
			Join(Project(Scan("path"), Col("src"), ColAs("dst", "mid")), Scan("edge"), [2]string{"mid", "src"}),
			Col("src"), Col("dst")))
	m.Rule("fanout", Instant,
		GroupBy(Scan("path"), []string{"src"}, Agg{Func: Count, As: "cnt"}))
	return m
}

// driveReplica delivers a deterministic workload derived from the replica
// index to a node of mod and ticks it to quiescence, returning the final
// digest; then it releases the node for the next replica to take up.
func driveReplica(i int, mod *Module) (string, error) {
	n, err := NewNode(fmt.Sprintf("rep%d", i), mod)
	if err != nil {
		return "", err
	}
	for round := 0; round < 4; round++ {
		for e := 0; e < 6; e++ {
			src := S(fmt.Sprintf("n%d", (i+e)%5))
			dst := S(fmt.Sprintf("n%d", (i+e+round)%5))
			if err := n.Deliver("edges", Row{src, dst}); err != nil {
				return "", err
			}
		}
		if _, err := n.Tick(); err != nil {
			return "", err
		}
	}
	d := n.Digest()
	n.Release()
	return d, nil
}

// TestConcurrentTickAcrossReplicas pins the concurrency contract the
// parallel runtime relies on: distinct nodes share no mutable state, so
// constructing, ticking and releasing many replicas of one module
// concurrently — each taking up a node another goroutine released — yields
// exactly the digests of fresh nodes run one after another (run under -race
// in CI).
func TestConcurrentTickAcrossReplicas(t *testing.T) {
	const replicas = 16
	want := make([]string, replicas)
	for i := range want {
		d, err := driveReplica(i, replicaModule()) // a module each: every node fresh
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	mod := replicaModule()
	got := make([]string, replicas)
	errs := make([]error, replicas)
	sim.NewPool(8).Map(replicas, func(i int) {
		got[i], errs[i] = driveReplica(i, mod)
	})
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("replica %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("replica %d: concurrent digest %q != sequential %q", i, got[i], want[i])
		}
	}
}

// TestConcurrentNodesShareModule: several nodes instantiated concurrently
// from one shared *Module (NewNode only reads it) behave identically.
func TestConcurrentNodesShareModule(t *testing.T) {
	mod := replicaModule()
	const nodes = 8
	digests := make([]string, nodes)
	errs := make([]error, nodes)
	sim.NewPool(4).Map(nodes, func(i int) {
		n, err := NewNode(fmt.Sprintf("shared%d", i), mod)
		if err != nil {
			errs[i] = err
			return
		}
		if err := n.Deliver("edges", Row{S("a"), S("b")}, Row{S("b"), S("c")}); err != nil {
			errs[i] = err
			return
		}
		if _, err := n.Tick(); err != nil {
			errs[i] = err
			return
		}
		digests[i] = n.Digest()
	})
	for i := 1; i < nodes; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if digests[i] != digests[0] {
			t.Fatalf("node %d digest %q != node 0 %q", i, digests[i], digests[0])
		}
	}
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

// TestCanonicalTextConcurrent: Digest, Render and the sorts behind Rows draw
// their scratch from one pool that every node in the process shares. Eight
// goroutines, each reading a node of its own of a different size (so the
// pooled buffers move between shapes), must read exactly what a serial run
// read. CI runs it under -race at one and at four processors.
func TestCanonicalTextConcurrent(t *testing.T) {
	const workers = 8
	nodes := make([]*Node, workers)
	read := func(n *Node) string {
		return n.Digest() + " " + n.Render("path") + " " + n.Render("edge") + " " + fmt.Sprint(n.Rows("path"))
	}
	want := make([]string, workers)
	for i := range nodes {
		n, err := NewNode(fmt.Sprintf("canon%d", i), replicaModule())
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3+4*i; e++ {
			if err := n.Deliver("edges", Row{S(fmt.Sprintf("n%d", e%(i+2))), S(fmt.Sprintf("n%d", (e*7+i)%(i+3)))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Tick(); err != nil {
			t.Fatal(err)
		}
		nodes[i], want[i] = n, read(n)
	}
	got := make([]string, workers)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if got[i] = read(n); got[i] != want[i] {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("node %d read concurrently %q, serially %q", i, got[i], want[i])
		}
	}
}
