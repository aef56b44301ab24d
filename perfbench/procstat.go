package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; Linux fixes it at 100 for every architecture's ABI.
const userHZ = 100

// selfCPU is the CPU time (user + system) the kernel-side process has used.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU is the CPU time (utime + stime) of another process, read from
// /proc/<pid>/stat at USER_HZ resolution.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, fmt.Errorf("worker cpu: %w", err)
	}
	// The command name (field 2) may hold spaces; fields restart after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("worker cpu: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("worker cpu: short stat for pid %d", pid)
	}
	// After ')' come state (field 3) onward: utime is field 14, stime 15.
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("worker cpu: bad stat for pid %d", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// statusKB reads one "Vm..." field of /proc/<pid>/status, in KiB.
func statusKB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			v, err := strconv.ParseFloat(fs[0], 64)
			if err != nil {
				return 0, fmt.Errorf("rss: %w", err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("rss: no %s for pid %s", field, pid)
}

// rssKB is the current resident set of this process plus the worker, in
// KiB.
func rssKB(workerPID int) (float64, error) {
	self, err := statusKB("self", "VmRSS")
	if err != nil || workerPID <= 0 {
		return self, err
	}
	w, err := statusKB(strconv.Itoa(workerPID), "VmRSS")
	return self + w, err
}

// procSnap is one reading of the process-level counters a window is
// measured against.
type procSnap struct {
	cpu        time.Duration
	workerCPU  time.Duration
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
}

func takeProcSnap(workerPID int) (procSnap, error) {
	var s procSnap
	var err error
	if s.cpu, err = selfCPU(); err != nil {
		return s, err
	}
	if workerPID > 0 {
		if s.workerCPU, err = procCPU(workerPID); err != nil {
			return s, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return s, nil
}

// maxGCPauseSince is the longest stop-the-world pause of the GC cycles
// after cycle n (as far back as the runtime's 256-entry pause ring goes).
func maxGCPauseSince(n uint32) time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var worst uint64
	for c := ms.NumGC; c > n && ms.NumGC-c < uint32(len(ms.PauseNs)); c-- {
		worst = max(worst, ms.PauseNs[(c+255)%256])
	}
	return time.Duration(worst)
}

// rssPeak is the largest combined resident set sampled so far.
type rssPeak struct {
	kb  float64
	err error
}

// sample reads the current resident sets of this process and the worker.
func (p *rssPeak) sample(workerPID int) {
	kb, err := rssKB(workerPID)
	if err != nil {
		p.err = err
		return
	}
	p.kb = max(p.kb, kb)
}
