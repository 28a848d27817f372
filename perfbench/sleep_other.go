//go:build !linux

package main

import "time"

func pinThread() error { return nil }

// nanosleep falls back to the runtime's timers.
func nanosleep(d time.Duration) { time.Sleep(d) }
