package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark measures host CPU time rather than wall-clock time where
// it can: on a virtual machine the hypervisor steals whole slices of
// wall-clock time from a busy guest, and Linux accounts that steal
// outside a task's CPU time. Wall-clock figures stay in the detail line.

const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID

// processCPU returns the CPU time of every thread of this process.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// children lists the pids of this process's live child processes.
func children() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := strconv.Itoa(os.Getpid())
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The fields after the parenthesized command are state, ppid, ...
		rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
		if f := strings.Fields(rest); len(f) >= 2 && f[1] == self {
			pids = append(pids, pid)
		}
	}
	return pids
}

// tasksCPU sums the CPU time of every thread of the given processes
// (the first field of /proc/<pid>/task/<tid>/schedstat, in ns).
func tasksCPU(pids []int) time.Duration {
	var total time.Duration
	for _, pid := range pids {
		files, _ := filepath.Glob(filepath.Join("/proc", strconv.Itoa(pid), "task", "*", "schedstat"))
		for _, f := range files {
			buf, err := os.ReadFile(f)
			if err != nil {
				continue
			}
			if fs := strings.Fields(string(buf)); len(fs) > 0 {
				if ns, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
					total += time.Duration(ns)
				}
			}
		}
	}
	return total
}

// resetPeakRSS lowers this process's peak resident memory (VmHWM) to
// its current resident size, so the next reading covers one rep only.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakMiB returns the largest peak resident memory (VmHWM) among the
// given live processes. Their rusage cannot be used instead: a child
// started by vfork+exec inherits the parent's high-water mark.
func peakMiB(pids []int) float64 {
	peak := 0.0
	for _, pid := range pids {
		status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					peak = max(peak, kb/1024)
				}
			}
		}
	}
	return peak
}
