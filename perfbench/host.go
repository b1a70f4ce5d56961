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
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine and code a run measured. It is
// recorded beside the numbers, never used to adjust them.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 digests every file of the checkout outside
	// dot-directories, so a run identifies its code even where the
	// checkout is not a git repository.
	SourceSHA256 string `json:"source_sha256"`
}

func newHostRecord(root string) hostRecord {
	return hostRecord{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

// gitCommit reads HEAD from root/.git without running git; it returns
// "unknown" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the names and contents of root's files, skipping
// dot-directories (.git, the build directory).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		_ = f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks.
func cpuTimes() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("/proc/stat: %w", err)
			}
			// guest and guest_nice (fields 9 and 10) are already
			// included in user and nice.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return steal, total, nil
	}
	return 0, 0, fmt.Errorf("/proc/stat: no cpu line")
}

// meter samples process CPU time, wall time and host steal at the start
// of a timed region; stop returns the deltas.
type meter struct {
	wall          time.Time
	cpu           float64
	steal, ticks  uint64
	stealReadable bool
}

func startMeter() meter {
	m := meter{cpu: processCPU()}
	if s, t, err := cpuTimes(); err == nil {
		m.steal, m.ticks, m.stealReadable = s, t, true
	}
	m.wall = time.Now()
	return m
}

// reading is what one timed region cost.
type reading struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`      // process user+sys
	Steal float64 `json:"steal_frac"` // host steal over all ticks in the region; -1 if unreadable
}

func (m meter) stop() reading {
	r := reading{Wall: time.Since(m.wall).Seconds(), CPU: processCPU() - m.cpu, Steal: -1}
	if s, t, err := cpuTimes(); err == nil && m.stealReadable && t > m.ticks {
		r.Steal = float64(s-m.steal) / float64(t-m.ticks)
	}
	return r
}

// processCPU is the process's user+sys CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
