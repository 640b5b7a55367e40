package experiments

import "sync/atomic"

// strictAll arms the invariant checker for every Run in the process,
// regardless of RunConfig.Strict. See SetStrictDefault.
var strictAll atomic.Bool

// SetStrictDefault toggles process-wide strict mode: when on, every
// Session run (Run, RunCluster, RunSMP) and cohort viewer audits its
// event stream with the invariant checker exactly as if RunConfig.Strict
// were set; RunPlaylist's viewer arms no checker. It exists for
// harnesses that cannot thread a config field through — `exprun -strict`
// over the experiment registry, and the golden/batch test suites —
// mirroring the process-wide TraceFactory hook. It returns the previous
// value so tests can restore it with defer.
func SetStrictDefault(on bool) (prev bool) { return strictAll.Swap(on) }

// strictDefault reports the process-wide strict toggle.
func strictDefault() bool { return strictAll.Load() }
