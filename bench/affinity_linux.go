package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask over the first 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

// cpus lists the members in ascending order.
func (s *cpuSet) cpus() []int {
	var out []int
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// affinity returns the CPUs thread tid may run on (0 = the calling thread).
func affinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return s, nil
}

// setAffinity confines thread tid (0 = the calling thread) to s. Threads and
// processes it creates afterwards inherit the mask.
func setAffinity(tid int, s cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// splitCPUs divides the CPUs this process may use into the last one, for a
// daemon, and the rest, for the client: CPU 0, where the kernel does most of
// its housekeeping, stays on the client's side. Both are nil where there is
// nothing to split — a single CPU — or the sandbox forbids setting masks.
func splitCPUs() (daemon, client *cpuSet) {
	all, err := affinity(0)
	if err != nil || setAffinity(0, all) != nil {
		return nil, nil
	}
	cpus := all.cpus()
	if len(cpus) < 2 {
		return nil, nil
	}
	daemon, client = new(cpuSet), new(cpuSet)
	last := len(cpus) - 1
	daemon.add(cpus[last])
	for _, c := range cpus[:last] {
		client.add(c)
	}
	return daemon, client
}

// pinSelf confines every thread of this process to s. A thread started while
// the task list is being walked inherits its creator's mask, which may still
// be the old one, so the walk repeats until it meets no thread it has not
// already moved.
func pinSelf(s cpuSet) error {
	done := make(map[int]bool)
	for moved := true; moved; {
		moved = false
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, ent := range entries {
			tid, err := strconv.Atoi(ent.Name())
			if err != nil || done[tid] {
				continue
			}
			// ESRCH: the thread exited since ReadDir.
			if err := setAffinity(tid, s); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			done[tid], moved = true, true
		}
	}
	return nil
}
