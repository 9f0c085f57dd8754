package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// machine is the hardware and toolchain a run measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
}

// fallbackLLC is the last-level cache size assumed when the machine
// does not report one; the memory reference is then sized from it.
const fallbackLLC = 32 << 20

func machineRecord() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		L2Bytes:    cacheBytes(2),
		L3Bytes:    cacheBytes(3),
	}
}

// lastLevelCache is the largest reported cache level's size.
func lastLevelCache() int64 {
	if l3 := cacheBytes(3); l3 > 0 {
		return l3
	}
	if l2 := cacheBytes(2); l2 > 0 {
		return l2
	}
	return fallbackLLC
}

// cpuTicks reads the machine's cumulative CPU time from /proc/stat, in
// clock ticks: the time stolen from this machine by its host (the
// steal column) and the total. Both are 0 when unreadable.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

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

// cacheBytes is the size of CPU 0's unified or data cache at level, 0
// when unknown.
func cacheBytes(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		if readTrim(filepath.Join(d, "level")) != strconv.Itoa(level) {
			continue
		}
		if t := readTrim(filepath.Join(d, "type")); t != "Unified" && t != "Data" {
			continue
		}
		s := readTrim(filepath.Join(d, "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v * mult
		}
	}
	return 0
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
