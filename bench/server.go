package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The harness's own copies of the /v1 response shapes: only the fields it
// reads, decoded leniently, so it keeps working when the server's internal
// wire types are moved, merged or renamed.

type assignedPair struct {
	Worker int32 `json:"worker"`
	Task   int32 `json:"task"`
}

type solveWire struct {
	Version        uint64          `json:"version"`
	Partial        bool            `json:"partial"`
	Cached         bool            `json:"cached"`
	Degraded       bool            `json:"degraded"`
	MinReliability float64         `json:"min_reliability"`
	TotalDiversity float64         `json:"total_diversity"`
	Assignment     json.RawMessage `json:"assignment"`
}

type laneWire struct {
	Solves uint64 `json:"solves"`
}

type statsWire struct {
	Version   uint64 `json:"version"`
	Tasks     int    `json:"tasks"`
	Workers   int    `json:"workers"`
	Pairs     int    `json:"pairs"`
	Enqueued  uint64 `json:"mutations_enqueued"`
	Coalesced uint64 `json:"mutations_coalesced"`
	Batches   uint64 `json:"batches"`
	Rebuilds  uint64 `json:"rebuilds"`
	// RetrieveMS is top-level on the single engine and per shard on the
	// cluster; retrieveMS() reads whichever is there.
	RetrieveMS        float64 `json:"retrieve_ms"`
	RejectedQueueFull uint64  `json:"rejected_queue_full"`
	Solves            uint64  `json:"solves"`
	SolverStats       struct {
		PairsEvaluated int
		BoundsComputed int
		BoundsReused   int
		Samples        int
		ScratchAllocs  int
		ScratchReused  int
	} `json:"solver_stats"`
	SolveCacheHits   uint64 `json:"solve_cache_hits"`
	SolveCacheMisses uint64 `json:"solve_cache_misses"`
	Adaptive         *struct {
		Exhaustive    laneWire `json:"exhaustive"`
		Greedy        laneWire `json:"greedy"`
		Sampling      laneWire `json:"sampling"`
		SLOViolations uint64   `json:"slo_violations"`
		Degraded      uint64   `json:"degraded"`
		Shed          uint64   `json:"shed"`
	} `json:"adaptive"`
	Durability struct {
		WALAppends        uint64 `json:"wal_appends"`
		WALSyncs          uint64 `json:"wal_syncs"`
		WALAppendFailures uint64 `json:"wal_append_failures"`
	} `json:"durability"`
	Shards []struct {
		Version    uint64  `json:"version"`
		RetrieveMS float64 `json:"retrieve_ms"`
	} `json:"shards"`
	Cluster *struct {
		CrossShardMoves     uint64 `json:"cross_shard_moves"`
		MoveRetireFailures  uint64 `json:"move_retire_failures"`
		EscalatedComponents uint64 `json:"escalated_components"`
		InteriorComponents  uint64 `json:"interior_components"`
		CrossShardPairs     int    `json:"cross_shard_pairs"`
		Assemblies          uint64 `json:"assemblies"`
		AssemblyReuses      uint64 `json:"assembly_reuses"`
		ConsistencyFailures uint64 `json:"consistency_failures"`
	} `json:"cluster"`
}

func (s *statsWire) retrieveMS() float64 {
	ms := s.RetrieveMS
	for _, sh := range s.Shards {
		ms += sh.RetrieveMS
	}
	return ms
}

// versionVector is the per-shard versions, or the one engine version.
func (s *statsWire) versionVector() []uint64 {
	if len(s.Shards) == 0 {
		return []uint64{s.Version}
	}
	v := make([]uint64, len(s.Shards))
	for i, sh := range s.Shards {
		v[i] = sh.Version
	}
	return v
}

// conn is one keep-alive connection to the server, used by one goroutine
// at a time: the whole load generator is two of these.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// Operation timeouts: an operation that exceeds its own fails.
const (
	mutationTimeout = 10 * time.Second
	solveTimeout    = 20 * time.Second
)

// do sends one request and reads the whole response. Any transport error,
// including the timeout, comes back as err.
func (c *conn) do(method, path string, body []byte, timeout time.Duration) (status int, resp []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, resp, err
}

func (c *conn) stats() (*statsWire, error) {
	status, body, err := c.do("GET", "/v1/stats", nil, mutationTimeout)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	var s statsWire
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return &s, nil
}

// server is one rdbsc-server subprocess.
type server struct {
	cmd     *exec.Cmd
	url     string
	started time.Time // just before exec

	mu   sync.Mutex
	tail []string      // last stderr lines, for failure reports
	done chan struct{} // closed when stderr hit EOF
}

// startServer executes the binary on a free loopback port and returns once
// /healthz answers 200. The stderr reader goroutine ends with the process.
func startServer(bin string, args []string) (*server, error) {
	s := &server{done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server must not outlive a harness that is killed mid-run.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				if f := strings.Fields(line[i+len("listening on "):]); len(f) > 0 {
					select {
					case addrCh <- f[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		s.url = "http://" + addr
	case <-s.done:
		_ = s.cmd.Wait()
		return nil, fmt.Errorf("server exited before listening:\n%s", s.stderrTail())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("server never announced its listen address")
	}
	c := newConn(s.url)
	defer c.close()
	for deadline := time.Now().Add(30 * time.Second); ; {
		status, _, err := c.do("GET", "/healthz", nil, time.Second)
		if err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server at %s never became healthy: %v", s.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop shuts the server down gracefully (SIGTERM) and waits for it; a
// server that outlives its own grace period is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return s.reap()
	}
	select {
	case <-s.done:
		return s.reap()
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("server ignored SIGTERM for 20s; killed")
	}
}

// kill is kill -9: no grace, no final fsync.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	_ = s.cmd.Wait() // the error is the expected "signal: killed"
}

func (s *server) reap() error {
	<-s.done
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("server exit: %w\n%s", err, s.stderrTail())
	}
	return nil
}

// cpuSeconds is the process's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks are USER_HZ = 100 on Linux).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// memMB reads one "Vm*" line (VmRSS, VmHWM) of /proc/<pid>/status in MiB.
func (s *server) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("%s not in /proc status", field)
}

// sampleRSS reads VmRSS four times a second until stop is closed and
// returns the samples. Their median is the run's rss_mb: a resident size
// the process sat at, where the high-water mark is a maximum — one
// ill-timed garbage-collection cycle moves it by a fifth.
func (s *server) sampleRSS(stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if mb, err := s.memMB("VmRSS"); err == nil {
				out = append(out, mb)
			}
		}
	}
}
