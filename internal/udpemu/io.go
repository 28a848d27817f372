package udpemu

import (
	"errors"
	"fmt"
	"net"
)

// IOMode selects how the emulator components move packets through the
// kernel: one syscall per packet (the portable reference path) or
// recvmmsg/sendmmsg bursts through preallocated rings (DESIGN.md §11).
type IOMode uint8

const (
	// IOAuto uses the batched path when the platform and socket support
	// it (Linux amd64/arm64, IPv4 socket) and falls back to the
	// portable path otherwise. The default.
	IOAuto IOMode = iota
	// IOPortable forces the per-packet net.UDPConn path — the fallback
	// on unsupported platforms and the equivalence reference for the
	// batched path.
	IOPortable
	// IOBatch requires the batched path; construction fails where it is
	// unsupported instead of silently degrading.
	IOBatch
)

// ioBurst is the batch size: how many datagrams one recvmmsg drains and
// one sendmmsg flushes. 32 mirrors the simulator's event-burst window
// (DESIGN.md §7) and common NIC burst sizes.
const ioBurst = 32

// String returns the flag spelling of the mode.
func (m IOMode) String() string {
	switch m {
	case IOAuto:
		return "auto"
	case IOPortable:
		return "portable"
	case IOBatch:
		return "batch"
	default:
		return fmt.Sprintf("IOMode(%d)", int(m))
	}
}

// ParseIOMode parses the -io flag vocabulary: auto, portable, batch.
func ParseIOMode(s string) (IOMode, error) {
	switch s {
	case "auto", "":
		return IOAuto, nil
	case "portable":
		return IOPortable, nil
	case "batch":
		return IOBatch, nil
	default:
		return IOAuto, fmt.Errorf("udpemu: unknown I/O mode %q (want auto, portable, or batch)", s)
	}
}

// BatchSupported reports whether this build has the recvmmsg/sendmmsg
// batch path compiled in (Linux on amd64 or arm64). Sockets must also
// be IPv4 for IOAuto to pick it at runtime.
func BatchSupported() bool { return batchSupported }

// errBatchUnsupported rejects IOBatch where the batch path cannot run.
var errBatchUnsupported = errors.New(
	"udpemu: batched I/O needs Linux on amd64/arm64 and an IPv4-bound socket; use -io portable or IOAuto")

// resolveIO maps a requested mode and a bound socket onto the batch
// conn actually used: nil means the portable path. IOBatch propagates
// the failure; IOAuto degrades silently.
func resolveIO(mode IOMode, conn *net.UDPConn) (*batchConn, error) {
	switch mode {
	case IOPortable:
		return nil, nil
	case IOBatch:
		return newBatchConn(conn)
	default:
		if !batchSupported {
			return nil, nil
		}
		bc, err := newBatchConn(conn)
		if err != nil {
			return nil, nil // e.g. IPv6 socket: portable fallback
		}
		return bc, nil
	}
}
