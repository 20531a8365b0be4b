package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest percentile, capped at p99, that still
// has at least ten samples beyond it.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage is a process resource reading taken around a measured window.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64        // MemStats.Mallocs
	cpuStat []uint64      // /proc/stat aggregate cpu line
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{at: time.Now(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, cpuStat: procStat()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// procStat returns the aggregate "cpu" line of /proc/stat (user nice
// system idle iowait irq softirq steal ...), nil when unavailable.
func procStat() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			var out []uint64
			for _, x := range fields[1:] {
				v, _ := strconv.ParseUint(x, 10, 64)
				out = append(out, v)
			}
			return out
		}
	}
	return nil
}

// stealShare is the host's steal share of all CPU time between two
// readings (-1 when /proc/stat is unavailable).
func stealShare(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return -1
	}
	var total uint64
	for i := range a {
		if i < len(b) && i < 8 { // guest columns are already in user/nice
			total += b[i] - a[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

// commitOf reads the checked-out commit from a .git directory above
// dir, "unknown" when there is none (exported source trees).
func commitOf(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		head, err := os.ReadFile(filepath.Join(d, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if r, ok := strings.CutPrefix(ref, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(d, ".git", r)); err == nil {
					return strings.TrimSpace(string(b))
				}
				return r
			}
			return ref
		}
		if filepath.Dir(d) == d {
			return "unknown"
		}
	}
}
