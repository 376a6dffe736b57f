package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"time"

	"blazes"
	"blazes/service"
)

// Chaos mode: the kill-9 durability acceptance test. The sequence is
//
//  1. spawn `-bin serve -journal dir` and open a mutate burst against it;
//  2. SIGKILL the server once it has acknowledged more journaled writes
//     than a snapshot needs (service.SnapshotEvery), with the burst still
//     arriving — no drain, no Close, exactly the crash the journal exists
//     for;
//  3. respawn on the same journal (the address is announced only after
//     the boot replay) and report the snapshot it recovered from;
//  4. hold the recovered state to the client's acknowledgement record:
//     every acknowledged session must be back, every recovered version
//     must equal the acknowledged op count (+1 only when one op was
//     in flight unacknowledged at the kill), and each recovered session's
//     analysis must be byte-identical to a fresh in-process server fed the
//     same op sequence.
//
// Anything less is lost acknowledged state and exits 1.

// serverProc is a spawned `blazes serve` child.
type serverProc struct {
	cmd  *exec.Cmd
	base string
}

var chaosAddrRe = regexp.MustCompile(`serving on (http://[^\s]+)`)

// spawnServer starts `-bin serve` on a free port with the configured
// journal and waits for the announced address.
func spawnServer(ctx context.Context, cfg config, stderr io.Writer) (*serverProc, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-max-sessions", fmt.Sprint(cfg.sessions + 8)}
	if cfg.journal != "" {
		args = append(args, "-journal", cfg.journal)
	}
	cmd := exec.CommandContext(ctx, cfg.bin, args...)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning %s: %w", cfg.bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := chaosAddrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	select {
	case base := <-addrCh:
		return &serverProc{cmd: cmd, base: base}, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s serve never announced its address", cfg.bin)
	case <-ctx.Done():
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, ctx.Err()
	}
}

// kill delivers SIGKILL — the crash under test, not a shutdown.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// stop ends a child that outlived its test (best effort; chaos mode
// normally kills explicitly).
func (p *serverProc) stop() { p.kill() }

func runChaos(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	proc, err := spawnServer(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return exitError
	}
	defer proc.stop()

	// Kill once the server has acknowledged more journaled writes than a
	// snapshot needs, so the restart recovers from a snapshot plus a
	// journal suffix however fast the host serves the burst; the rest of
	// the burst is still arriving, so the SIGKILL lands amid in-flight
	// mutates.
	killAt := make(chan struct{})
	var killOnce sync.Once
	rec := newRecorder()
	rec.onWrite = func(n int64) {
		if n <= service.SnapshotEvery {
			return
		}
		killOnce.Do(func() {
			fmt.Fprintf(stderr, "loadgen: chaos: SIGKILL mid-burst after %d acknowledged writes\n", n)
			proc.kill()
			close(killAt)
		})
	}
	states := burst(ctx, cfg, proc.base, rec, killAt)
	select {
	case <-killAt:
	default:
		fmt.Fprintf(stderr, "loadgen: chaos: burst finished before the kill fired — raise -sessions or lower -rate\n")
		return exitError
	}

	fmt.Fprintf(stderr, "loadgen: chaos: restarting on %s\n", cfg.journal)
	proc2, err := spawnServer(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return exitError
	}
	defer proc2.stop()
	recovery, err := recoveryStats(ctx, proc2.base)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return exitError
	}
	fmt.Fprintf(stderr, "loadgen: chaos: recovered from snapshot_seq %d and %d journal records\n", recovery.SnapshotSeq, recovery.Records)

	lost, checked, err := verifyRecovered(ctx, proc2.base, states, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: chaos: %v\n", err)
		return exitError
	}
	ackedOps := 0
	ackedSessions := 0
	for _, st := range states {
		if st.created {
			ackedSessions++
			ackedOps += len(st.acked)
		}
	}
	fmt.Fprintf(stderr, "loadgen: chaos: %d acked sessions (%d acked ops), %d differentially checked, %d lost\n",
		ackedSessions, ackedOps, checked, lost)
	if lost > 0 {
		fmt.Fprintf(stderr, "loadgen: chaos: FAIL — acknowledged state was lost\n")
		return exitError
	}
	fmt.Fprintln(stdout, "loadgen: chaos: PASS — zero acknowledged-op loss")
	return exitOK
}

// recoveryStats reads what the boot replay found in the journal from
// /v1/stats. The server announces its address only after the replay, so
// one read is the final answer.
func recoveryStats(ctx context.Context, base string) (service.RecoveryStats, error) {
	var st service.StatsResponse
	code, err := getJSON(ctx, &http.Client{Timeout: 5 * time.Second}, base+"/v1/stats", &st)
	switch {
	case err != nil:
		return service.RecoveryStats{}, err
	case code != http.StatusOK || st.Recovery == nil:
		return service.RecoveryStats{}, fmt.Errorf("/v1/stats answered %d with no recovery section", code)
	}
	return *st.Recovery, nil
}

// verifyRecovered holds the restarted server to the acknowledgement
// record. It returns how many sessions lost acknowledged state and how
// many passed the byte-differential against a fresh replay.
func verifyRecovered(ctx context.Context, base string, states []*sessionState, stderr io.Writer) (lost, checked int, err error) {
	client := &http.Client{Timeout: 30 * time.Second}
	for _, st := range states {
		if !st.created {
			continue // never acknowledged; the journal owes us nothing
		}
		var info service.SessionInfo
		code, err := getJSON(ctx, client, base+"/v1/sessions/"+st.id, &info)
		if err != nil {
			return lost, checked, err
		}
		if code != http.StatusOK {
			fmt.Fprintf(stderr, "loadgen: chaos: %s (load-%d) missing after restart (HTTP %d)\n", st.id, st.index, code)
			lost++
			continue
		}
		want := len(st.acked)
		ops := st.acked
		switch {
		case info.Version == uint64(want):
			// exactly the acknowledged sequence
		case info.Version == uint64(want+1) && st.inflight != nil:
			// the op in flight at the kill was journaled before the
			// acknowledgement could be sent — durable, never acked. That
			// is allowed; fold it into the replay oracle.
			ops = append(append([]service.MutateOp(nil), st.acked...), *st.inflight)
		default:
			fmt.Fprintf(stderr, "loadgen: chaos: %s recovered at version %d, acknowledged %d (inflight %v)\n",
				st.id, info.Version, want, st.inflight != nil)
			lost++
			continue
		}

		gotRep, err := analyzeBody(ctx, client, base+"/v1/sessions/"+st.id+"/analyze")
		if err != nil {
			return lost, checked, err
		}
		wantRep, err := freshReplayAnalysis(ctx, st, ops)
		if err != nil {
			return lost, checked, fmt.Errorf("fresh replay for %s: %w", st.id, err)
		}
		if gotRep != wantRep {
			fmt.Fprintf(stderr, "loadgen: chaos: %s analysis differs from fresh replay of its acknowledged ops\n", st.id)
			lost++
			continue
		}
		checked++
	}
	return lost, checked, nil
}

// freshReplayAnalysis rebuilds the session through the exported rebuild
// path — CreateRequest.NewSession, then MutateOp.Apply for each op — and
// returns its analysis encoded as the analyze endpoint encodes it: the
// byte-identical oracle for the recovered server's answer.
func freshReplayAnalysis(ctx context.Context, st *sessionState, ops []service.MutateOp) (string, error) {
	sess, err := service.CreateRequest{Name: fmt.Sprintf("load-%d", st.index), Spec: blazes.WordcountSpec()}.NewSession()
	if err != nil {
		return "", err
	}
	for _, op := range ops {
		if err := op.Apply(sess); err != nil {
			return "", err
		}
	}
	rep, err := sess.Analyze(ctx)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = json.NewEncoder(&b).Encode(rep)
	return b.String(), err
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// analyzeBody POSTs an analyze and returns the raw body for byte
// comparison.
func analyzeBody(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
