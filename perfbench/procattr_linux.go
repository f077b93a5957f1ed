package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child if the benchmark dies
// first, so no serving process outlives a killed run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
