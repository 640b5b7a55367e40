// Package stress closes the sim-to-real loop over real sockets: a
// shaped-bitrate origin server, a player-driver that runs the actual
// internal/player downloader/buffer logic over live HTTP while recording
// a bandwidth trace, and a load generator that hammers dvfsd-compatible
// endpoints. The recorded traces replay through the simulator via
// netsim.Trace (RunConfig.Net = "trace"), which is how simulated network
// behavior is validated against a real TCP path (DESIGN.md §14).
package stress

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Shape names a rate-shaping discipline of the origin server, following
// the streaming-delivery taxonomy of Hoque et al. (arXiv:1209.2855).
type Shape string

const (
	// ShapeSteady paces the whole payload at the target rate.
	ShapeSteady Shape = "steady"
	// ShapeOnOff alternates line-rate ON bursts with silent OFF windows,
	// sized so the mean rate over a full cycle equals the target rate —
	// the server-side burst shaping of ON-OFF streaming.
	ShapeOnOff Shape = "onoff"
	// ShapeThrottle serves an unthrottled initial burst, then paces the
	// remainder at the target rate — the classic "fast start then
	// throttle" delivery.
	ShapeThrottle Shape = "throttle"
)

// Shapes returns the known disciplines.
func Shapes() []Shape { return []Shape{ShapeSteady, ShapeOnOff, ShapeThrottle} }

// ErrBadShape reports an unknown shape name.
var ErrBadShape = errors.New("unknown shape")

// ParseShape validates a shape name ("" parses as ShapeSteady).
func ParseShape(name string) (Shape, error) {
	switch Shape(name) {
	case "":
		return ShapeSteady, nil
	case ShapeSteady, ShapeOnOff, ShapeThrottle:
		return Shape(name), nil
	}
	return "", fmt.Errorf("stress: %w %q (known: %v)", ErrBadShape, name, Shapes())
}

// The origin's byte sizes: its write/pacing granularity, and the cap on
// one /blob response, so a typo cannot pin a handler goroutine for hours.
const (
	chunkBytes   = 16 << 10
	maxBlobBytes = 256 << 20
)

// OriginConfig tunes the shaped origin server.
type OriginConfig struct {
	// RateBps is the target delivery rate in bits/s (default 8 Mbit/s).
	RateBps float64
	// Shape is the delivery discipline (default ShapeSteady).
	Shape Shape
	// OnDur/OffDur set the ON-OFF cycle (defaults 200 ms / 300 ms). The
	// ON window serves at line rate whatever a full cycle's worth of
	// payload is, so the cycle mean equals RateBps.
	OnDur, OffDur time.Duration
	// BurstBytes is the unthrottled head of a ShapeThrottle response
	// (default 256 KiB).
	BurstBytes int
}

// withDefaults fills the zero fields.
func (c OriginConfig) withDefaults() OriginConfig {
	if c.RateBps == 0 {
		c.RateBps = 8e6
	}
	if c.Shape == "" {
		c.Shape = ShapeSteady
	}
	if c.OnDur == 0 {
		c.OnDur = 200 * time.Millisecond
	}
	if c.OffDur == 0 {
		c.OffDur = 300 * time.Millisecond
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = 256 << 10
	}
	return c
}

// Validate checks the configuration after defaults.
func (c OriginConfig) Validate() error {
	if c.RateBps <= 0 {
		return fmt.Errorf("stress: origin rate %v not positive", c.RateBps)
	}
	if _, err := ParseShape(string(c.Shape)); err != nil {
		return err
	}
	if c.OnDur <= 0 || c.OffDur < 0 {
		return fmt.Errorf("stress: origin on/off windows %v/%v invalid", c.OnDur, c.OffDur)
	}
	if c.BurstBytes < 0 {
		return fmt.Errorf("stress: origin burst %d bytes invalid", c.BurstBytes)
	}
	return nil
}

// Origin is the shaped-bitrate byte server. Routes:
//
//	GET /healthz          → 200 "ok"
//	GET /blob?bytes=N     → N payload bytes, shaped per config; the
//	                        query may override rate=<bps> and
//	                        shape=<steady|onoff|throttle> per request.
type Origin struct {
	cfg OriginConfig
	mux *http.ServeMux
}

// NewOrigin builds the server (use Handler with http.Server or httptest).
func NewOrigin(cfg OriginConfig) (*Origin, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &Origin{cfg: cfg, mux: http.NewServeMux()}
	o.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	o.mux.HandleFunc("GET /blob", o.handleBlob)
	return o, nil
}

// Handler returns the origin's HTTP handler.
func (o *Origin) Handler() http.Handler { return o.mux }

func (o *Origin) handleBlob(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, err := strconv.ParseInt(q.Get("bytes"), 10, 64)
	if err != nil || n <= 0 || n > maxBlobBytes {
		http.Error(w, fmt.Sprintf("bytes must be in [1, %d]", maxBlobBytes), http.StatusBadRequest)
		return
	}
	rate := o.cfg.RateBps
	if v := q.Get("rate"); v != "" {
		rate, err = strconv.ParseFloat(v, 64)
		if err != nil || rate <= 0 || rate > 1e12 {
			http.Error(w, "rate must be a positive bit rate", http.StatusBadRequest)
			return
		}
	}
	shape := o.cfg.Shape
	if v := q.Get("shape"); v != "" {
		shape, err = ParseShape(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	o.serve(w, r, n, rate, shape)
}

// serve streams n payload bytes with the requested shaping. Pacing is
// absolute (each chunk's deadline is computed from the transfer start,
// not accumulated sleeps), so timer coarseness does not drift the mean
// rate.
func (o *Origin) serve(w http.ResponseWriter, r *http.Request, n int64, rate float64, shape Shape) {
	fl, _ := w.(http.Flusher)
	chunk := make([]byte, chunkBytes)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	start := time.Now()
	ctx := r.Context()

	// deadlineFor returns when the byte at offset `sent` may be sent.
	var deadlineFor func(sent int64) time.Time
	switch shape {
	case ShapeOnOff:
		// Serve each cycle's quota at line rate at the top of its cycle;
		// the quota is the cycle length's worth of payload at the target
		// rate, so the cycle mean matches RateBps.
		cycle := o.cfg.OnDur + o.cfg.OffDur
		quota := rate / 8 * cycle.Seconds()
		deadlineFor = func(sent int64) time.Time {
			cycles := float64(sent) / quota
			return start.Add(time.Duration(float64(cycle) * float64(int64(cycles))))
		}
	case ShapeThrottle:
		burst := int64(o.cfg.BurstBytes)
		deadlineFor = func(sent int64) time.Time {
			if sent < burst {
				return start
			}
			return start.Add(time.Duration(float64(sent-burst) * 8 / rate * float64(time.Second)))
		}
	default: // ShapeSteady
		deadlineFor = func(sent int64) time.Time {
			return start.Add(time.Duration(float64(sent) * 8 / rate * float64(time.Second)))
		}
	}

	var sent int64
	for sent < n {
		if d := time.Until(deadlineFor(sent)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return
			}
		}
		m := int64(len(chunk))
		if n-sent < m {
			m = n - sent
		}
		if _, err := w.Write(chunk[:m]); err != nil {
			return // client gone
		}
		if fl != nil {
			fl.Flush()
		}
		sent += m
	}
}
