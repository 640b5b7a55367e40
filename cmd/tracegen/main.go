// Command tracegen emits workload traces: per-frame video decode traces
// as CSV (index, type, pts, bits, cycles), or a Markov-modulated bandwidth
// link as the bandwidth-trace JSONL that dvfsim replays with -net trace
// (netsim.WriteTrace's format). The file replays at the generated rates
// up to the end of its last sample; a link that ends in an outage writes
// no sample for it, so that tail replays at the last non-zero rate.
//
// Usage:
//
//	tracegen -kind video -title sports -res 720p -duration 60 -seed 1
//	tracegen -kind bandwidth -net lte -duration 300 -seed 1 -out lte.jsonl
//	dvfsim -net trace -trace-file lte.jsonl -duration 60
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		kind      = fs.String("kind", "video", "trace kind: video, bandwidth")
		titleName = fs.String("title", "sports", "video: content profile")
		resName   = fs.String("res", "720p", "video: resolution")
		net       = fs.String("net", "lte", "bandwidth: lte, umts")
		duration  = fs.Float64("duration", 60, "trace length in seconds")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "tracegen: close:", cerr)
			}
		}()
		w = f
	}

	dur := sim.Time(*duration) * sim.Second
	switch *kind {
	case "video":
		title, err := video.TitleByName(*titleName)
		if err != nil {
			return err
		}
		res, err := video.ResolutionByName(*resName)
		if err != nil {
			return err
		}
		stream, err := video.Generate(video.DefaultSpec(title, res), dur, *seed)
		if err != nil {
			return err
		}
		return video.WriteTrace(w, stream)
	case "bandwidth":
		steps, err := markovSteps(*net, dur, *seed)
		if err != nil {
			return err
		}
		return netsim.WriteTrace(w, replayTrace(steps, dur))
	default:
		return fmt.Errorf("unknown trace kind %q", *kind)
	}
}

// markovSteps draws the named profile's Markov link over dur, from the
// stream a run of that network draws its own link from.
func markovSteps(net string, dur sim.Time, seed int64) (netsim.Steps, error) {
	var states []netsim.MarkovState
	switch net {
	case "lte":
		states = netsim.LTEStates()
	case "umts":
		states = netsim.UMTSStates()
	default:
		return netsim.Steps{}, fmt.Errorf("unknown bandwidth profile %q", net)
	}
	return netsim.GenMarkovTrace(states, dur, sim.Stream(seed, "bw/"+net))
}

// replayTrace turns a step link into a recorded trace that replays at the
// same rates over the span its samples cover: one sample per non-zero
// step, carrying the bytes the step delivers (rate × length / 8, the last
// step ending at dur), all in fetch 0. An outage step writes no sample,
// so it becomes a gap inside the one fetch, which netsim.Trace replays at
// rate 0. A trailing outage is no gap: netsim.Trace holds the last
// sample's rate after it.
func replayTrace(steps netsim.Steps, dur sim.Time) netsim.Trace {
	var tr netsim.Trace
	for i, st := range steps.Trace {
		if st.Bps == 0 {
			continue
		}
		end := dur
		if i+1 < len(steps.Trace) {
			end = steps.Trace[i+1].Start
		}
		tr.Samples = append(tr.Samples, netsim.TraceSample{
			Start: st.Start,
			End:   end,
			Bytes: st.Bps * (end - st.Start).Seconds() / 8,
		})
	}
	return tr
}
