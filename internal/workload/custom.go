package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/trace"
)

// ProfileJSON is the serialized form of a Profile for custom workloads.
// Sizes are in pages (2 KB), the gap in nanoseconds; all other fields map
// one-to-one onto Profile.
type ProfileJSON struct {
	Name           string  `json:"name"`
	FootprintPages int     `json:"footprint_pages"`
	HotPages       int     `json:"hot_pages,omitempty"`
	HotFrac        float64 `json:"hot_frac,omitempty"`
	ZipfS          float64 `json:"zipf_s,omitempty"`
	DriftPeriod    int     `json:"drift_period,omitempty"`
	DriftStep      int     `json:"drift_step,omitempty"`
	StreamFrac     float64 `json:"stream_frac,omitempty"`
	SweepWindow    int     `json:"sweep_window,omitempty"`
	SweepAdvance   int     `json:"sweep_advance,omitempty"`
	FlashPages     int     `json:"flash_pages,omitempty"`
	FlashFrac      float64 `json:"flash_frac,omitempty"`
	FlashPeriod    int     `json:"flash_period,omitempty"`
	LinesPerTouch  int     `json:"lines_per_touch"`
	WriteFrac      float64 `json:"write_frac"`
	GapMeanNs      int64   `json:"gap_mean_ns"`
}

// toProfile converts the JSON form and validates it.
func (pj ProfileJSON) toProfile() (Profile, error) {
	if pj.GapMeanNs > int64(maxGapMean/clock.Nanosecond) {
		// Checked before the conversion, which could overflow into range.
		return Profile{}, fmt.Errorf("workload %s: gap mean %d ns exceeds %d ns",
			pj.Name, pj.GapMeanNs, maxGapMean/clock.Nanosecond)
	}
	p := Profile{
		Name:           pj.Name,
		FootprintPages: pj.FootprintPages,
		HotPages:       pj.HotPages,
		HotFrac:        pj.HotFrac,
		ZipfS:          pj.ZipfS,
		DriftPeriod:    pj.DriftPeriod,
		DriftStep:      pj.DriftStep,
		StreamFrac:     pj.StreamFrac,
		SweepWindow:    pj.SweepWindow,
		SweepAdvance:   pj.SweepAdvance,
		FlashPages:     pj.FlashPages,
		FlashFrac:      pj.FlashFrac,
		FlashPeriod:    pj.FlashPeriod,
		LinesPerTouch:  pj.LinesPerTouch,
		WriteFrac:      pj.WriteFrac,
		GapMean:        clock.Duration(pj.GapMeanNs) * clock.Nanosecond,
	}
	return p, p.Validate()
}

// CustomWorkloadJSON describes an 8-core workload built from custom
// profiles: `profiles` defines the benchmarks, `cores` names which profile
// each of the eight cores runs (a single entry is replicated to all
// cores, i.e. a homogeneous workload).
type CustomWorkloadJSON struct {
	Name     string        `json:"name"`
	Profiles []ProfileJSON `json:"profiles"`
	Cores    []string      `json:"cores"`
}

// CustomWorkload is a workload over user-defined profiles. It provides
// the same Stream and Record methods as the built-in Workload.
type CustomWorkload struct {
	Name     string
	profiles [8]Profile
}

// LoadCustom parses a custom workload definition from JSON.
func LoadCustom(r io.Reader) (*CustomWorkload, error) {
	var def CustomWorkloadJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("workload: parsing custom definition: %w", err)
	}
	if def.Name == "" {
		return nil, fmt.Errorf("workload: custom definition has no name")
	}
	byName := make(map[string]Profile, len(def.Profiles))
	for _, pj := range def.Profiles {
		p, err := pj.toProfile()
		if err != nil {
			return nil, err
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("workload: duplicate custom profile %q", p.Name)
		}
		byName[p.Name] = p
	}
	switch len(def.Cores) {
	case 1:
		def.Cores = []string{def.Cores[0], def.Cores[0], def.Cores[0], def.Cores[0],
			def.Cores[0], def.Cores[0], def.Cores[0], def.Cores[0]}
	case 8:
	default:
		return nil, fmt.Errorf("workload: custom cores must list 1 or 8 profiles, got %d", len(def.Cores))
	}
	w := &CustomWorkload{Name: def.Name}
	for i, name := range def.Cores {
		p, ok := byName[name]
		if !ok {
			// Fall back to the built-in Table 3 profiles by name.
			p, ok = ByName(name)
		}
		if !ok {
			return nil, fmt.Errorf("workload: core %d references unknown profile %q", i, name)
		}
		w.profiles[i] = p
	}
	return w, nil
}

// Stream builds the custom workload's merged trace, like Workload.Stream.
func (w *CustomWorkload) Stream(n int, seed int64) (trace.Stream, error) {
	srcs, err := newGenerators(&w.profiles, seed)
	if err != nil {
		return nil, err
	}
	return merged(srcs, n), nil
}

// Record records the custom workload's trace on every core, like
// Workload.Record.
func (w *CustomWorkload) Record(n int, seed int64) (*trace.Snapshot, error) {
	srcs, err := newGenerators(&w.profiles, seed)
	if err != nil {
		return nil, err
	}
	return record(srcs, n)
}
