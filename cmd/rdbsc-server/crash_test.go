package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdbsc/internal/serve"
	"rdbsc/internal/workload"
)

// The crash-restart differential harness: replay a deterministic churn
// trace against a real rdbsc-server process as synchronous single-mutation
// requests, SIGKILL the process at randomized cut points, restart it from
// the data directory, and require the final engine version and solve
// answer to be identical to an uninterrupted golden run of the same trace.
// Every mutation is acknowledged before the next is sent, so the WAL must
// hold exactly the acked prefix at each kill — any lost or double-applied
// batch shows up as a version or assignment divergence.

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rdbsc-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rdbsc-server: %v\n%s", err, out)
	}
	return bin
}

// proc is one live server process.
type proc struct {
	cmd *exec.Cmd
	url string
}

// startServer launches the binary and waits for the resolved listen
// address (the "-addr 127.0.0.1:0" log line) and a passing health check.
func startServer(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(func() { p.kill(t) })
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				if f := strings.Fields(line[i+len("listening on "):]); len(f) > 0 {
					select {
					case addrCh <- f[0]:
					default:
					}
				}
			}
			// Keep draining so the child never blocks on a full pipe.
		}
	}()
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its listen address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never became healthy: %v", p.url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill SIGKILLs the process — no shutdown grace, no final fsync; the crash
// under test.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if p.cmd.ProcessState != nil {
		return // already reaped
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait() // reaps and releases the pipe; error is the expected "killed"
}

// eventRequest renders one trace event as its /v1 HTTP mutation.
func eventRequest(ev workload.Event) (method, path string, body []byte) {
	switch ev.Kind {
	case workload.TaskArrive:
		b, _ := json.Marshal(serve.NewTaskJSON(ev.Task))
		return http.MethodPost, "/v1/tasks", b
	case workload.TaskExpire:
		return http.MethodDelete, fmt.Sprintf("/v1/tasks/%d", ev.TaskID), nil
	case workload.WorkerArrive:
		b, _ := json.Marshal(serve.NewWorkerJSON(ev.Worker))
		return http.MethodPost, "/v1/workers", b
	case workload.WorkerLeave:
		return http.MethodDelete, fmt.Sprintf("/v1/workers/%d", ev.WorkerID), nil
	}
	panic("unknown event kind")
}

func mustJSON(t *testing.T, method, url string, body []byte) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: %s %s", method, url, resp.Status, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding: %v", method, url, err)
	}
	return out
}

// finalState solves with a fixed seed and reads the engine version; the
// pair is the differential fingerprint.
func finalState(t *testing.T, url string) (float64, map[string]any) {
	t.Helper()
	solve := mustJSON(t, http.MethodPost, url+"/v1/solve", []byte(`{"solver":"greedy","seed":5}`))
	for _, volatile := range []string{"elapsed_ms", "at", "stats", "cached", "cluster"} {
		delete(solve, volatile)
	}
	health := mustJSON(t, http.MethodGet, url+"/healthz", nil)
	version, ok := health["version"].(float64)
	if !ok {
		t.Fatalf("healthz carries no version: %v", health)
	}
	return version, solve
}

// runTrace replays the trace synchronously, killing and restarting the
// server before the events whose index is in cuts. It returns the final
// (version, solve) fingerprint.
func runTrace(t *testing.T, bin, dataDir string, shards int, tr *workload.Trace, cuts map[int]bool) (float64, map[string]any) {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0", "-solver", "greedy",
		"-data-dir", dataDir, "-fsync", "off", "-snapshot-every", "8",
		"-shards", fmt.Sprint(shards),
	}
	p := startServer(t, bin, args...)
	for i, ev := range tr.Events {
		if cuts[i] {
			p.kill(t)
			p = startServer(t, bin, args...)
		}
		method, path, body := eventRequest(ev)
		mustJSON(t, method, p.url+path, body)
	}
	version, solve := finalState(t, p.url)
	p.kill(t)
	return version, solve
}

// TestCrashRestartDifferential is the durability pin: for both the churn
// and hotspot traces, at 1 and 4 shards, a run interrupted by three
// randomized SIGKILLs recovers to exactly the golden run's engine version
// and solve answer.
func TestCrashRestartDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	bin := buildServer(t)
	for _, scenario := range []string{"churn", "hotspot"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-shards%d", scenario, shards), func(t *testing.T) {
				t.Parallel()
				sc, err := workload.ByName(scenario)
				if err != nil {
					t.Fatal(err)
				}
				tr := sc.Trace(workload.Params{M: 20, N: 40, Seed: 1, Horizon: 2})
				if len(tr.Events) < 10 {
					t.Fatalf("trace too short to cut 3 times: %d events", len(tr.Events))
				}

				goldenVersion, goldenSolve := runTrace(t, bin, t.TempDir(), shards, tr, nil)

				// Three distinct cut points, seeded per subtest so reruns
				// reproduce; drawn from the middle so each restart has
				// state to recover and trace left to apply.
				rng := rand.New(rand.NewSource(int64(len(tr.Events)) + int64(shards)*1000))
				cuts := map[int]bool{}
				for len(cuts) < 3 {
					cuts[1+rng.Intn(len(tr.Events)-1)] = true
				}
				crashVersion, crashSolve := runTrace(t, bin, t.TempDir(), shards, tr, cuts)

				if crashVersion != goldenVersion {
					t.Errorf("recovered version %v, golden %v", crashVersion, goldenVersion)
				}
				if !reflect.DeepEqual(crashSolve, goldenSolve) {
					t.Errorf("solve diverged after crash-recovery:\n golden: %v\n crashed: %v", goldenSolve, crashSolve)
				}
			})
		}
	}
}
