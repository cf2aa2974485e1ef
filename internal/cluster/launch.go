package cluster

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// Worker processes are launched by re-executing the current binary
// with these environment variables set — the test binary and antibench
// both become workers when spawned this way, so no separate worker
// binary is needed for self-hosted clusters (cmd/antwork exists for
// running workers on other machines or under other supervisors).
const (
	envWorker = "ANTCLUSTER_WORKER"
	envSlots  = "ANTCLUSTER_SLOTS"
)

// WorkerMainIfSpawned turns the current process into a cluster worker
// when it was spawned by SpawnSelf, never returning in that case. Call
// it first thing in main (or TestMain), before flag parsing.
func WorkerMainIfSpawned() {
	addr := os.Getenv(envWorker)
	if addr == "" {
		return
	}
	slots, _ := strconv.Atoi(os.Getenv(envSlots))
	if err := RunWorker(context.Background(), WorkerOptions{Coordinator: addr, Slots: slots}); err != nil {
		fmt.Fprintln(os.Stderr, "antcluster worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Process is a spawned worker subprocess.
type Process struct {
	cmd *exec.Cmd
}

// SpawnSelf launches the current executable as a worker subprocess
// connected to the coordinator at addr.
func SpawnSelf(addr string, slots int) (*Process, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envWorker+"="+addr,
		envSlots+"="+strconv.Itoa(slots))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &Process{cmd: cmd}, nil
}

// Kill terminates the worker with SIGKILL — the failure-injection
// path: no cleanup, no deregistration, exactly like a machine loss —
// and reaps it.
func (p *Process) Kill() error {
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.cmd.Wait() // reap; the error (killed) is expected
	return nil
}

// Wait blocks until the worker exits on its own (job shutdown).
func (p *Process) Wait() error { return p.cmd.Wait() }
