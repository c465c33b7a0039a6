package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile is one CPU + heap profiling session, the hook cmd/emulate gates
// behind its -cpuprofile / -memprofile flags. Start it before
// the measured work, Stop it after; Stop flushes and closes every output
// file and reports the first error — profiles are evidence, a silently
// truncated one is worse than none.
type Profile struct {
	cpuFile  *os.File
	heapPath string
}

// StartProfile begins a profiling session. A non-empty cpuPath starts a CPU
// profile streaming into that file immediately; a non-empty heapPath is
// remembered and a heap profile is written there at Stop (after a GC, so
// the numbers reflect live objects, not garbage). Both may be empty — the
// session is then a no-op, which lets callers wire the flags
// unconditionally.
func StartProfile(cpuPath, heapPath string) (*Profile, error) {
	p := &Profile{heapPath: heapPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("telemetry: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				return nil, fmt.Errorf("telemetry: start cpu profile: %v (and close: %w)", err, cerr)
			}
			return nil, fmt.Errorf("telemetry: start cpu profile: %w", err)
		}
		p.cpuFile = f
	}
	return p, nil
}

// Stop ends the session: the CPU profile is stopped and its file closed,
// then the heap profile (if requested) is captured and written. Every
// close error is propagated; the first error wins but all cleanup still
// runs. Stop is safe to call on a nil session and idempotent enough for a
// defer: a second call finds nothing left to flush.
func (p *Profile) Stop() error {
	if p == nil {
		return nil
	}
	var firstErr error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			firstErr = fmt.Errorf("telemetry: close cpu profile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.heapPath != "" {
		path := p.heapPath
		p.heapPath = ""
		if err := writeHeapProfile(path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// writeHeapProfile captures a post-GC heap profile into path, closing the
// file on every path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: create heap profile: %w", err)
	}
	runtime.GC() // collect garbage so the profile shows live allocations
	if err := pprof.WriteHeapProfile(f); err != nil {
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("telemetry: write heap profile: %v (and close: %w)", err, cerr)
		}
		return fmt.Errorf("telemetry: write heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: close heap profile: %w", err)
	}
	return nil
}
