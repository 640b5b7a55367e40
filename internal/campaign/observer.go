package campaign

import (
	"fmt"
	"io"
)

// Observer receives progress events from a batch. The pool serializes all
// calls, so implementations need no locking. Callbacks run on worker
// goroutines and should return quickly.
type Observer interface {
	// JobStarted fires when a worker picks up job i.
	JobStarted(i int, p Progress)
	// JobDone fires when job i finishes; err is nil on success and a
	// *PanicError when the job panicked.
	JobDone(i int, err error, p Progress)
	// BatchDone fires once after every job finished.
	BatchDone(p Progress)
}

// LogObserver prints progress lines to a writer: one line every Every
// completions (and on failures), plus a summary line at the end.
type LogObserver struct {
	// W receives the progress lines.
	W io.Writer
	// Every is the completion interval between lines (≤0 = every 10).
	Every int
}

// JobStarted implements Observer.
func (o *LogObserver) JobStarted(int, Progress) {}

// JobDone implements Observer.
func (o *LogObserver) JobDone(i int, err error, p Progress) {
	every := o.Every
	if every <= 0 {
		every = 10
	}
	if err != nil {
		fmt.Fprintf(o.W, "campaign: run %d failed: %v\n", i, err)
		return
	}
	if p.Completed%every == 0 || p.Completed == p.Total {
		o.line(p)
	}
}

// BatchDone implements Observer.
func (o *LogObserver) BatchDone(p Progress) {
	fmt.Fprintf(o.W, "campaign: done %d runs (%d failed) in %.1fs — %.1f runs/s\n",
		p.Completed, p.Failed, p.Wall.Seconds(), p.RunsPerSec())
}

func (o *LogObserver) line(p Progress) {
	fmt.Fprintf(o.W, "campaign: %d/%d done (%d failed) %.1fs %.1f runs/s\n",
		p.Completed, p.Total, p.Failed, p.Wall.Seconds(), p.RunsPerSec())
}
