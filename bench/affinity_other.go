//go:build !linux

package main

// cpuSet stands in for the Linux affinity mask: elsewhere the benchmark
// leaves placement to the kernel.
type cpuSet struct{}

func (s *cpuSet) cpus() []int { return nil }

func affinity(int) (cpuSet, error) { return cpuSet{}, nil }

func setAffinity(int, cpuSet) error { return nil }

func splitCPUs() (daemon, client *cpuSet) { return nil, nil }

func pinSelf(cpuSet) error { return nil }
