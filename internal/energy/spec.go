package energy

import (
	"fmt"
	"math"
)

// SystemSpec is a declarative, serializable description of a power system:
// a capacitor size plus a named harvester class and its parameters. It is
// the unit fleet campaigns and the job-serving API pass around — a spec
// plus one seed fully determines a power system, including every sample a
// stochastic harvester will ever draw, so any device in a fleet can be
// re-simulated in isolation from its (spec, seed) pair.
type SystemSpec struct {
	// Kind selects the harvester class: "cont" (mains-like, never fails),
	// "const" (fixed-power RF), "stoch" (lognormal RF), "solar" (diurnal
	// half-sine), or "trace" (replayed samples).
	Kind string `json:"kind"`
	// CapFarads sizes the buffering capacitor (ignored for "cont").
	CapFarads float64 `json:"cap_farads,omitempty"`
	// Watts is the harvester's mean ("const", "stoch") or peak ("solar")
	// power. Zero defaults to DefaultRFWatts.
	Watts float64 `json:"watts,omitempty"`
	// Sigma is the lognormal sigma for "stoch" (zero defaults to 0.4).
	Sigma float64 `json:"sigma,omitempty"`
	// Trace holds the per-cycle power samples for "trace".
	Trace []float64 `json:"trace,omitempty"`
}

// maxUsablePJ bounds a capacitor's usable charge in picojoules: up to 2^53
// every integer picojoule figure is an exact float64.
const maxUsablePJ = 1 << 53

// Harvester parameter bounds. No harvester the model describes delivers
// more than maxWatts. A stochastic draw scales the mean by
// exp(n·sigma - sigma²/2), where n comes from math/rand/v2's NormFloat64,
// whose tail sampler works from 53-bit uniforms and so stays above -13
// (short of two consecutive zero draws, a 2^-106 event). With
// sigma <= maxSigma and a mean of at least minWatts the drawn power stays
// above 1e-35 W, so a recharge does not see zero.
const (
	minWatts float64 = 1e-9
	maxWatts float64 = 10
	maxSigma float64 = 4
)

// Validate reports whether the spec describes a constructible system,
// without constructing it. NaN and infinite parameters are rejected; a NaN
// would otherwise slip past every ordered comparison below.
func (s SystemSpec) Validate() error {
	switch s.Kind {
	case "cont":
		return nil
	case "const", "stoch", "solar", "trace":
	case "":
		return fmt.Errorf("energy: spec has no harvester kind")
	default:
		return fmt.Errorf("energy: unknown harvester kind %q", s.Kind)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"capacitor", s.CapFarads}, {"harvest power", s.Watts}, {"sigma", s.Sigma}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("energy: %q spec has non-finite %s %v", s.Kind, f.name, f.v)
		}
	}
	if s.CapFarads <= 0 {
		return fmt.Errorf("energy: %q spec needs a positive capacitor, got %v", s.Kind, s.CapFarads)
	}
	// The capacitor accounts its charge in integer picojoules; past
	// maxUsablePJ (about 6e4 F) the conversion is inexact, and it soon
	// overflows int64.
	if pj := CapBank(s.CapFarads).UsableNJ() * 1000; pj > maxUsablePJ {
		return fmt.Errorf("energy: %q spec capacitor %v F stores %.3g pJ, above the %.3g pJ limit",
			s.Kind, s.CapFarads, pj, float64(maxUsablePJ))
	}
	if s.Kind == "trace" {
		_, err := NewTraceHarvester(s.Trace)
		return err
	}
	if s.Watts != 0 && (s.Watts < minWatts || s.Watts > maxWatts) {
		return fmt.Errorf("energy: %q spec harvest power %v W is outside [%g, %g] W (0 selects the default)",
			s.Kind, s.Watts, minWatts, maxWatts)
	}
	if s.Sigma < 0 || s.Sigma > maxSigma {
		return fmt.Errorf("energy: %q spec sigma %v is outside [0, %g]", s.Kind, s.Sigma, maxSigma)
	}
	return nil
}

// New constructs the power system the spec describes, fully charged. The
// seed pins every random draw of stochastic harvesters; deterministic
// kinds ignore it, so equal (spec, seed) pairs always yield systems with
// identical behavior.
func (s SystemSpec) New(seed uint64) (System, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := s.Watts
	if w == 0 {
		w = DefaultRFWatts
	}
	cap := CapBank(s.CapFarads)
	switch s.Kind {
	case "cont":
		return Continuous{}, nil
	case "const":
		return NewIntermittent(cap, ConstantHarvester{Watts: w}), nil
	case "stoch":
		sigma := s.Sigma
		if sigma == 0 {
			sigma = 0.4
		}
		return NewIntermittent(cap, NewStochasticHarvester(w, sigma, seed)), nil
	case "solar":
		return NewIntermittent(cap, NewSolarHarvester(w, seed)), nil
	default: // "trace", already validated
		h, err := NewTraceHarvester(s.Trace)
		if err != nil {
			return nil, err
		}
		return NewIntermittent(cap, h), nil
	}
}
