package main

import (
	"fmt"
	goruntime "runtime"
	"time"
)

// runDiagnostics prints two numbers that size the workloads and are not
// part of the benchmark's contract: neither repeats well enough to gate
// on, and the ladder overloads the engine on purpose.
//
//   - runtime.sustainable_events_per_s: Linear offered 50k to 250k ev/s in
//     steps of 25k, four seconds each; the highest step that delivered at
//     least 99 % of its offer. It flips between neighbouring steps from
//     run to run. Above it the delivered rate falls, because the source's
//     backlog grows without bound.
//   - runtime.p1_cpu_us_per_event: firehose-linear on GOMAXPROCS=1 for ten
//     seconds, the single-threaded baseline of CPU time per sink arrival.
func runDiagnostics(seed int64) error {
	firehose := workloads[0].cfg
	firehose.seed = seed
	warm := func() (*sut, error) {
		s, err := submit(firehose)
		if err == nil {
			err = s.start()
		}
		wall.Sleep(warmUp)
		return s, err
	}

	s, err := warm()
	if err != nil {
		return err
	}
	sustainable := 0.0
	const step = 4 * time.Second
	for rate := 50000.0; rate <= 250000; rate += 25000 {
		s.setRate(rate)
		wall.Sleep(step / 4) // let the previous step's events clear
		a := take(s)
		wall.Sleep(step - step/4)
		b := take(s)
		delivered := float64(b.arrivals-a.arrivals) / (rate * b.t.Sub(a.t).Seconds())
		fmt.Printf("  offered %6.0f ev/s  delivered %.3f\n", rate, delivered)
		if delivered < minDelivered {
			break
		}
		sustainable = rate
	}
	s.stop()
	fmt.Printf("%-42s %14.0f %-6s\n", "runtime.sustainable_events_per_s", sustainable, "1/s")

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	if s, err = warm(); err != nil {
		return err
	}
	a := take(s)
	wall.Sleep(10 * time.Second)
	b := take(s)
	s.stop()
	fmt.Printf("%-42s %14.4f %-6s\n", "runtime.p1_cpu_us_per_event", us(b.cpu-a.cpu)/float64(b.arrivals-a.arrivals), "us")
	return nil
}
