package telemetry

import (
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// StartCPUProfile begins a pprof CPU profile to path and returns a stop
// function; call it (usually via defer) to flush and close the file.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes a heap profile to path (after a GC, so the
// profile reflects live objects rather than garbage).
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// Periodic writes render(elapsed) to w every interval until the returned
// stop function is called; stop returns once the writer has exited, so no
// redraw lands after it. Used by the cmd tools' -snapshot-every flag: a
// snapshot line per tick, or a redrawn top screen.
func Periodic(w io.Writer, interval time.Duration, render func(elapsed time.Duration) string) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				io.WriteString(w, render(time.Since(start))) // diagnostics stream; a failed write only loses a frame
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
