package main

import (
	"os/exec"
	"runtime"
	"strings"
)

// stamp records where a result came from, so nobody reads a 4-CPU series
// off a 1-CPU box or compares an ext4 run with a tmpfs one unawares.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDirFS  string `json:"data_dir_fs"`
	Network    string `json:"network"`
}

func makeStamp(dataDir string) stamp {
	commit := "unknown" // the acceptance checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		DataDirFS:  fsType(dataDir),
		Network:    "loopback: client and server share one process and host; no wire latency is measured",
	}
}
