package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host describes the machine and the code a run measured, so figures
// from different hosts or commits are never mistaken for one another.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"` // of the Go sources under the repository root
	Seed       uint64 `json:"seed"`
}

// hostFacts returns the host facts of this run as one JSON object.
func hostFacts(root string, seed uint64) string {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		Commit:     commit(),
		Source:     sourceHash(root),
		Seed:       seed,
	}
	if h.GOGC == "" {
		h.GOGC = "default"
	}
	b, _ := json.Marshal(h) // plain strings and ints cannot fail to encode
	return string(b)
}

// stealClock reads the host's cumulative CPU time and the part of it
// stolen by the hypervisor, in clock ticks, from /proc/stat. ok is false
// where the file is unavailable.
func stealClock() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter reports the share of CPU time the hypervisor took from this
// machine since the meter was started: on a shared VM, the usual cause of
// a run that is slow as a whole.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := stealClock()
	return stealMeter{t, s, ok}
}

// String renders the stolen share, or "unknown".
func (m stealMeter) String() string {
	t, s, ok := stealClock()
	if !m.ok || !ok || t <= m.total {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(s-m.steal)/float64(t-m.total))
}

// cpuModel reads the first model name of /proc/cpuinfo.
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

// commit returns the VCS revision stamped into the binary, marked
// "+dirty" when the tree had changes, or "unknown" when the build was not
// made inside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash hashes every .go and go.mod file under root (paths and
// contents, in walk order), skipping build output and VCS metadata.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path) // path lies under root by construction
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
