package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its calls into the engine (spans inside the engine are a later
// change). Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartUs  int64  `json:"start_us"`
	EndUs    int64  `json:"end_us"`
	Parent   int    `json:"parent"`
}

// tracer keeps spans in memory until write. A nil tracer records nothing,
// which is how the untraced pass runs.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Layer: layer, Workload: t.workload, Parent: parent,
		StartUs: start.Sub(processStart).Microseconds(), EndUs: end.Sub(processStart).Microseconds(),
	})
	return id
}

// close ends span id now; a span that encloses others is added first, so
// that they can name it as their parent, and closed last.
func (t *tracer) close(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUs = wall.Since(processStart).Microseconds()
}

// timed runs f and records it as a span.
func (t *tracer) timed(name, layer string, parent int, f func()) {
	start := wall.Now()
	f()
	t.add(name, layer, parent, start, wall.Now())
}

// write replaces path with every span recorded so far.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// extremes are the signals that move before delivered_ratio does, at
// their worst over the sampled seconds.
type extremes struct {
	queueDepth, ackerPending, goroutines int
	sourceLag                            time.Duration
}

// sampler polls the running job every 10 ms.
type sampler struct {
	stop, done chan struct{}
	seen       extremes
}

// startSampler samples s until halt. rate and the emitted count at start
// give how late the open-loop generator is running: (t·rate − emitted)/rate.
func startSampler(s *sut, rate float64) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	start, emitted0 := wall.Now(), s.emitted()
	go func() {
		defer close(sm.done)
		for {
			select {
			case <-sm.stop:
				return
			case <-wall.After(10 * time.Millisecond):
			}
			due := wall.Since(start).Seconds() * rate
			sm.seen.fold(extremes{
				queueDepth:   s.queueDepthMax(),
				ackerPending: s.ackerPending(),
				goroutines:   goruntime.NumGoroutine(),
				sourceLag:    time.Duration((due - float64(s.emitted()-emitted0)) / rate * float64(time.Second)),
			})
		}
	}()
	return sm
}

// halt stops the sampler, waits for it and returns what it saw.
func (sm *sampler) halt() extremes {
	close(sm.stop)
	<-sm.done
	return sm.seen
}

// fold keeps the larger of each signal.
func (e *extremes) fold(o extremes) {
	e.queueDepth = max(e.queueDepth, o.queueDepth)
	e.ackerPending = max(e.ackerPending, o.ackerPending)
	e.goroutines = max(e.goroutines, o.goroutines)
	e.sourceLag = max(e.sourceLag, o.sourceLag)
}
