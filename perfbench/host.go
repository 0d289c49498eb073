package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// host describes the machine and build a result was measured on, so
// results compare across commits only when their hosts match.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw a repository; Source is a digest of the simulator's Go
	// sources, which identifies the code in a checkout without one.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func readHostInfo() host {
	h := host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       envOr("GOGC", "100"),
		GOMEMLIMIT: envOr("GOMEMLIMIT", "off"),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
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

// sourceDigest hashes go.mod and every .go file under internal/ of the
// module rooted at root, in path order ("" if they cannot be read).
func sourceDigest(root string) string {
	h := sha256.New()
	hashFile := func(p string) error {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			return err
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
		return nil
	}
	if err := hashFile("go.mod"); err != nil {
		return ""
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		return hashFile(rel)
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
