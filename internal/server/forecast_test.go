package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// TestRunRequestForecastMapping pins the wire→config mapping of the
// forecast axis: every field lands on its RunConfig counterpart, catalog
// misses wrap ErrInvalidConfig, and semantic violations flow through
// Validate's taxonomy unchanged.
func TestRunRequestForecastMapping(t *testing.T) {
	req := RunRequest{
		Net:                "lte",
		LowWaterSec:        10,
		Forecast:           "noisy",
		ForecastLookaheadS: 15,
		ForecastRelErr:     0.25,
		ForecastSeed:       7,
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Forecast != experiments.ForecastNoisy {
		t.Errorf("forecast kind %q, want noisy", cfg.Forecast)
	}
	if cfg.ForecastLookahead != 15*sim.Second {
		t.Errorf("lookahead %v, want 15 s", cfg.ForecastLookahead)
	}
	if cfg.ForecastRelErr != 0.25 || cfg.ForecastSeed != 7 {
		t.Errorf("relerr/seed %v/%v, want 0.25/7", cfg.ForecastRelErr, cfg.ForecastSeed)
	}

	if _, err := (RunRequest{Forecast: "psychic", LowWaterSec: 5}).Config(); !errors.Is(err, experiments.ErrInvalidConfig) {
		t.Errorf("unknown forecast kind: %v, want ErrInvalidConfig", err)
	}
	if _, err := (RunRequest{Forecast: "oracle"}).Config(); !errors.Is(err, experiments.ErrInvalidConfig) {
		t.Errorf("forecast without low water: %v, want ErrInvalidConfig", err)
	}
	if _, err := (RunRequest{Forecast: "oracle", LowWaterSec: 5, ForecastRelErr: 0.1}).Config(); !errors.Is(err, experiments.ErrInvalidConfig) {
		t.Errorf("relerr without noisy: %v, want ErrInvalidConfig", err)
	}
}

// TestRunForecastEndpoint drives the forecast axis through the HTTP
// surface: a predictive run completes, and the error envelope carries the
// catalog of kinds on a miss.
func TestRunForecastEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/run",
		`{"net":"lte","duration_s":5,"low_water_sec":4,"forecast":"oracle","forecast_lookahead_s":10}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predictive run: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Completed bool `json:"completed"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("predictive run body: %v: %s", err, b)
	}

	resp = postJSON(t, ts.URL+"/v1/run", `{"low_water_sec":4,"forecast":"psychic"}`)
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown forecast: status %d, want 400: %s", resp.StatusCode, b)
	}
	var eb Envelope
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Code != CodeInvalidConfig {
		t.Fatalf("unknown forecast: not an invalid-config envelope: %s", b)
	}
}
