// Package wallclock enforces the repo's paper-time clock discipline:
// components never read or wait on the wall clock directly — they take a
// timex.Clock and speak paper time throughout (internal/timex package
// doc). A single raw time.Sleep breaks every ScaledClock ratio the
// experiments depend on, and a raw time.After in a guard (the bug this
// analyzer was born from, internal/experiments/supervise.go) silently
// measures wall time against paper-time deadlines.
//
// Flagged: uses of time.Now, time.Sleep, time.After, time.AfterFunc,
// time.Tick, time.NewTimer, time.NewTicker and time.Since anywhere
// outside internal/timex — including taking them as function values, so
// `f := time.Now` cannot smuggle one past the check. Test files are
// exempt by construction (Analyzer.IgnoreTests): tests own the wall
// clock for watchdog guards and -timeout interplay.
//
// Legitimate wall-clock sites (cmd wall-time reporting) carry an
// annotation:
//
//	start := time.Now() //vetstorm:allow wallclock reporting real elapsed wall time to the operator
package wallclock

import (
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// forbidden are the time package entry points that read or schedule
// against the wall clock. Everything else in package time (Duration
// arithmetic, Parse, Date construction) is pure and allowed.
var forbidden = map[string]string{
	"Now":       "Clock.Now",
	"Sleep":     "Clock.Sleep",
	"After":     "Clock.After",
	"AfterFunc": "Clock.AfterFunc",
	"Since":     "Clock.Since",
	"Tick":      "Clock.After in a loop",
	"NewTimer":  "Clock.AfterFunc",
	"NewTicker": "Clock.AfterFunc rearmed per beat",
}

// exemptPathSuffix marks the clock implementation itself, the one place
// wall-clock access is the point.
const exemptPathSuffix = "internal/timex"

// Analyzer is the wallclock invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:        "wallclock",
	Doc:         "forbids direct wall-clock access (time.Now/Sleep/After/...) outside internal/timex; components take a timex.Clock and speak paper time",
	IgnoreTests: true,
	Run:         run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), exemptPathSuffix) {
		return nil
	}
	for ident, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		replacement, bad := forbidden[fn.Name()]
		if !bad || !analysis.IsPkgFunc(fn, "time", fn.Name()) {
			continue
		}
		pass.Reportf(ident.Pos(),
			"time.%s reads the wall clock: components speak paper time — take a timex.Clock and use %s (see internal/timex)",
			fn.Name(), replacement)
	}
	return nil
}
