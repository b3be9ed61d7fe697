package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// hostInfo fingerprints the machine and the code a report came from.
type hostInfo struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	commit     string // FLOWBENCH_COMMIT, set by run.sh from git when available
	source     string // digest of the module sources under the working directory
}

func readHost() hostInfo {
	h := hostInfo{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     os.Getenv("FLOWBENCH_COMMIT"),
		source:     sourceDigest("."),
	}
	if h.commit == "" {
		h.commit = "none"
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit, h.source)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file under root (build
// outputs and VCS metadata skipped), so reports from checkouts without
// git history still identify the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the code
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("sha256:%s(%d files)", hex.EncodeToString(h.Sum(nil))[:16], len(files))
}

// peakRSSMB is the process's resident-set high-water mark in MB (VmHWM),
// falling back to the Go runtime's total mapped memory off Linux.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// gcSample is a reading of the runtime's GC accounting.
type gcSample struct {
	cpuGC, cpuTotal float64 // CPU seconds
	allocBytes      float64
	cycles          float64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcSample {
	samples := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return gcSample{
		cpuGC:      val(samples[0]),
		cpuTotal:   val(samples[1]),
		allocBytes: val(samples[2]),
		cycles:     val(samples[3]),
	}
}

func (g gcSample) add(o gcSample) gcSample {
	return gcSample{
		cpuGC:      g.cpuGC + o.cpuGC,
		cpuTotal:   g.cpuTotal + o.cpuTotal,
		allocBytes: g.allocBytes + o.allocBytes,
		cycles:     g.cycles + o.cycles,
	}
}

func (g gcSample) sub(o gcSample) gcSample {
	return gcSample{
		cpuGC:      g.cpuGC - o.cpuGC,
		cpuTotal:   g.cpuTotal - o.cpuTotal,
		allocBytes: g.allocBytes - o.allocBytes,
		cycles:     g.cycles - o.cycles,
	}
}

// readSteal returns the machine's stolen and total CPU time in clock
// ticks (/proc/stat): time a hypervisor ran other guests on this
// machine's CPUs. Zeros off Linux.
func readSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
