package main

import "strings"

// modules lists the names self time is attributed to, in report order.
// The netclone/internal packages keep their own names; the rest of the
// process is grouped by what an optimisation would have to touch.
var modules = []string{
	"simnet", "simcluster", "dataplane", "congestion", "topology",
	"workload", "stats", "scenario", "udpemu", "wire", "kvstore",
	"runtime", "syscall", "net", "bench", "stdlib", "other",
}

// moduleOf maps a profile function name to its module. Closures
// (".func1"), methods ("(*T).m"), generic instantiations ("F[...]"),
// inlined frames ("(inline)" in text reports) and runtime-generated
// helpers ("type:.eq.T") all land in the package that owns them.
// math/rand is counted as workload: the samplers are its only heavy
// user, and the layer table reports the two together.
func moduleOf(fn string) string {
	fn = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(fn), "(inline)"))
	if strings.HasPrefix(fn, "type:") || fn == "" {
		return "runtime" // compiler-generated equality and hash helpers
	}
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "netclone/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "netclone/internal/"), "/")
		if contains(modules, name) {
			return name
		}
		return "other"
	case pkg == "main" || pkg == "netclone/perfbench": // the latter in test binaries
		return "bench"
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "workload"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" ||
		pkg == "runtime/internal/syscall" || pkg == "internal/syscall/unix":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || pkg == "internal/poll" || pkg == "os" || pkg == "net/netip":
		return "net"
	case strings.HasPrefix(pkg, "netclone"):
		return "other"
	default:
		return "stdlib"
	}
}

// packageOf returns the import path of a fully qualified Go function
// name: everything before the first '.' that follows the last '/',
// after dropping generic type arguments, which may themselves hold
// dots and slashes.
func packageOf(fn string) string {
	fn = stripBrackets(fn)
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// stripBrackets removes every balanced [...] group.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// gcFrame reports whether a frame is garbage-collector work: background
// marking and sweeping, mutator assists, and write barriers.
func gcFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject",
		"runtime.markroot", "runtime.sweepone", "runtime._GC":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// schedFrame reports whether a frame is goroutine scheduling: finding
// work, parking and readying goroutines, handing Ps across syscalls,
// and polling the network for ready sockets.
func schedFrame(fn string) bool {
	switch fn {
	case "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.netpoll", "runtime.handoffp", "runtime.exitsyscall",
		"runtime.entersyscall", "runtime.entersyscallblock", "runtime.goschedImpl":
		return true
	}
	return false
}
