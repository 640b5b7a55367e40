package experiments

import (
	"errors"
	"fmt"
	"slices"

	"videodvfs/internal/governor"
)

// GovernorID is a typed governor identifier: one of the stock cpufreq
// baselines, "energyaware", or "oracle". The zero value is invalid; use
// ParseGovernorID to convert untrusted strings (CLI flags, config files)
// into a validated ID.
type GovernorID string

// Built-in governors.
const (
	// GovPerformance pins the top OPP.
	GovPerformance GovernorID = "performance"
	// GovPowersave pins the bottom OPP.
	GovPowersave GovernorID = "powersave"
	// GovOndemand is the sampling-based stock default.
	GovOndemand GovernorID = "ondemand"
	// GovConservative is ondemand with gradual steps.
	GovConservative GovernorID = "conservative"
	// GovInteractive is the Android-era touch-boost governor.
	GovInteractive GovernorID = "interactive"
	// GovSchedutil is the scheduler-utilization governor.
	GovSchedutil GovernorID = "schedutil"
	// GovEnergyAware is the paper's video-aware policy.
	GovEnergyAware GovernorID = "energyaware"
	// GovOracle is the offline-optimal reference.
	GovOracle GovernorID = "oracle"
)

// ErrUnknownGovernor reports a governor name outside GovernorIDs();
// distinguish it with errors.Is.
var ErrUnknownGovernor = errors.New("unknown governor")

// ErrUnknownABR reports an ABR name outside ABRIDs(); distinguish it
// with errors.Is.
var ErrUnknownABR = errors.New("unknown ABR algorithm")

// ErrUnknownNet reports a network name outside NetKinds(); distinguish it
// with errors.Is.
var ErrUnknownNet = errors.New("unknown network kind")

// governorIDs is every governor Run accepts, in report order: the stock
// baselines of governor.BaselineNames followed by energyaware and oracle.
var governorIDs = func() []GovernorID {
	var ids []GovernorID
	for _, n := range governor.BaselineNames() {
		ids = append(ids, GovernorID(n))
	}
	return append(ids, GovEnergyAware, GovOracle)
}()

// GovernorIDs returns every governor Run accepts, in report order: the
// stock baselines followed by energyaware and oracle.
func GovernorIDs() []GovernorID { return slices.Clone(governorIDs) }

// ParseGovernorID validates a governor name from an untrusted source.
// Unknown names return an error matching ErrUnknownGovernor.
func ParseGovernorID(name string) (GovernorID, error) {
	return parseID(name, governorIDs, ErrUnknownGovernor)
}

// parseID returns the ID of known that name spells, or an error wrapping
// unknown that lists known. The scan allocates nothing on success, which
// keeps Validate allocation-free on the arena-reuse hot path.
func parseID[T ~string](name string, known []T, unknown error) (T, error) {
	for _, id := range known {
		if string(id) == name {
			return id, nil
		}
	}
	return "", fmt.Errorf("experiments: %w %q (known: %v)", unknown, name, known)
}

// ABRID is a typed adaptation-algorithm identifier. The empty string is
// accepted by Run as ABRFixed; use ParseABRID to validate untrusted
// strings.
type ABRID string

// Built-in adaptation algorithms.
const (
	// ABRFixed pins one rendition (RunConfig.Rung).
	ABRFixed ABRID = "fixed"
	// ABRRate is the classic throughput-rule algorithm.
	ABRRate ABRID = "rate"
	// ABRBBA is the buffer-based BBA-0 style algorithm.
	ABRBBA ABRID = "bba"
)

// abrIDs is every adaptation algorithm Run accepts, in report order.
var abrIDs = []ABRID{ABRFixed, ABRRate, ABRBBA}

// ABRIDs returns every adaptation algorithm Run accepts, in report
// order.
func ABRIDs() []ABRID { return slices.Clone(abrIDs) }

// ParseABRID validates an ABR name from an untrusted source. The empty
// string parses as ABRFixed; unknown names return an error matching
// ErrUnknownABR.
func ParseABRID(name string) (ABRID, error) {
	if name == "" {
		return ABRFixed, nil
	}
	return parseID(name, abrIDs, ErrUnknownABR)
}

// String returns the network name, mirroring GovernorID and ABRID's
// string forms for flag messages and error text.
func (n NetKind) String() string { return string(n) }

// ParseNetKind validates a network name from an untrusted source (flags,
// request bodies). The empty string parses as NetWiFi — the same default
// Run applies to an unset RunConfig.Net — and unknown names return an
// error matching ErrUnknownNet.
func ParseNetKind(name string) (NetKind, error) {
	if name == "" {
		return NetWiFi, nil
	}
	return parseID(name, netKinds, ErrUnknownNet)
}

// ForecastKind is a typed bandwidth-forecast identifier. The empty string
// (ForecastNone) disables the predictive scheduler — the player keeps the
// reactive low-water burst trigger; use ParseForecastKind to validate
// untrusted strings.
type ForecastKind string

// Built-in forecast models.
const (
	// ForecastNone disables forecasting (reactive low-water trigger).
	ForecastNone ForecastKind = ""
	// ForecastOracle is the perfect forecast: it probes the run's own
	// bandwidth model ahead of time, so predictions are exactly the rates
	// the downloader will see.
	ForecastOracle ForecastKind = "oracle"
	// ForecastNoisy is the oracle degraded by seeded multiplicative error
	// (RunConfig.ForecastRelErr); deterministic, so still cacheable.
	ForecastNoisy ForecastKind = "noisy"
)

// ErrUnknownForecast reports a forecast name outside ForecastKinds();
// distinguish it with errors.Is.
var ErrUnknownForecast = errors.New("unknown forecast kind")

// forecastKinds is every non-empty forecast kind Run accepts, in report
// order.
var forecastKinds = []ForecastKind{ForecastOracle, ForecastNoisy}

// ForecastKinds returns every non-empty forecast kind Run accepts, in
// report order.
func ForecastKinds() []ForecastKind { return slices.Clone(forecastKinds) }

// String returns the forecast name, mirroring the other typed IDs.
func (k ForecastKind) String() string { return string(k) }

// ParseForecastKind validates a forecast name from an untrusted source.
// The empty string parses as ForecastNone — forecasting off, the Run
// default — and unknown names return an error matching ErrUnknownForecast.
func ParseForecastKind(name string) (ForecastKind, error) {
	if name == "" {
		return ForecastNone, nil
	}
	return parseID(name, forecastKinds, ErrUnknownForecast)
}
