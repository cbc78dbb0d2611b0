package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile of xs (0 <= p <= 100), linearly
// interpolated between the closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the peak resident set size (VmHWM) of each
// process, so the next reading covers only what follows.
func resetPeakRSS(pids []int) {
	for _, p := range pids {
		os.WriteFile(filepath.Join("/proc", strconv.Itoa(p), "clear_refs"), []byte("5"), 0)
	}
}

// cpuModel returns the host CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clockTicks is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTicks = 100

// procTree returns pid and every descendant process of it.
func procTree(pid int) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return []int{pid}
	}
	parent := map[int]int{}
	for _, e := range entries {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if fields := procStat(p); len(fields) > 1 {
			if pp, err := strconv.Atoi(fields[1]); err == nil {
				parent[p] = pp
			}
		}
	}
	tree := []int{pid}
	for i := 0; i < len(tree); i++ {
		for p, pp := range parent {
			if pp == tree[i] {
				tree = append(tree, p)
			}
		}
	}
	return tree
}

// procStat returns the fields of /proc/<pid>/stat after the command
// name: index 0 is the state, 1 the parent pid, 11 utime, 12 stime.
func procStat(pid int) []string {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return nil
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(s[i+1:])
}

// treeCPU returns the CPU time pid and its descendants have used so far.
func treeCPU(pid int) time.Duration {
	var ticks int64
	for _, p := range procTree(pid) {
		f := procStat(p)
		if len(f) < 13 {
			continue
		}
		u, _ := strconv.ParseInt(f[11], 10, 64)
		s, _ := strconv.ParseInt(f[12], 10, 64)
		ticks += u + s
	}
	return time.Duration(ticks) * time.Second / clockTicks
}

// peakRSSMiB sums the peak resident set size (VmHWM) of the processes.
func peakRSSMiB(pids []int) float64 {
	var kib float64
	for _, p := range pids {
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p), "status"))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				kib += n
			}
		}
	}
	return kib / 1024
}
