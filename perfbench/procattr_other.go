//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death
// signal; cancelling the run's context still kills every child.
func dieWithParent(*exec.Cmd) {}
