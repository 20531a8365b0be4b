package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSelfTest runs every workload briefly, untraced and traced. Each
// run must finish with zero failed ops and print exactly the metrics
// BENCHMARK.json names, with their units; afterwards no socket,
// goroutine, child process or corpus copy may be left behind.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join("..", ".bench_build", "selftest")
	// run installs a signal handler; os/signal's watcher goroutine then
	// lives for the rest of the process, so start it before the baseline.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR2)
	signal.Stop(sig)
	sockets0, goroutines0 := socketFDs(t), runtime.NumGoroutine()

	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", wl.Name, "--seed", "7", "--seconds", "2", "--trace", trace,
				"--models", filepath.Join("..", "models"), "--work", work}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s\n%s", wl.Name, trace, code, stderr.String(), stdout.String())
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %s", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}

	// Nothing outlives a run: sockets and goroutines return to their
	// baseline, no child process exists and the corpus copies are gone.
	deadline := time.Now().Add(5 * time.Second)
	for socketFDs(t) > sockets0 || runtime.NumGoroutine() > goroutines0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leak: %d sockets (baseline %d), %d goroutines (baseline %d)\n%s",
				socketFDs(t), sockets0, runtime.NumGoroutine(), goroutines0, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if kids := childProcesses(t); len(kids) > 0 {
		t.Fatalf("child processes survive: %v", kids)
	}
	if left, _ := filepath.Glob(filepath.Join(work, "run-*")); len(left) > 0 {
		t.Fatalf("corpus copies left behind: %v", left)
	}
}

// TestStackCloseReleasesListener checks that a closed stack refuses
// connections on its former address.
func TestStackCloseReleasesListener(t *testing.T) {
	tmp := filepath.Join("..", ".bench_build", "selftest")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := startStack(context.Background(), filepath.Join("..", "models"), tmp)
	if err != nil {
		t.Fatal(err)
	}
	addr := st.ln.Addr().String()
	st.close()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after close", addr)
	}
	if _, err := os.Stat(st.corpus); !os.IsNotExist(err) {
		t.Fatalf("corpus copy %s not removed", st.corpus)
	}
}

// socketFDs counts the process's open socket descriptors.
func socketFDs(t *testing.T) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// childProcesses lists the pids of the process's children.
func childProcesses(t *testing.T) []int {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var kids []int
	for _, task := range tasks {
		b, err := os.ReadFile(filepath.Join("/proc/self/task", task.Name(), "children"))
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(f); err == nil {
				kids = append(kids, pid)
			}
		}
	}
	return kids
}
