package dram

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/clock"
)

// This file is the declarative spec registry: every memory technology the
// simulator ships is a named Spec value here, selectable by name from
// exp.Config, cmd/mempodsim (-spec) and cmd/experiments instead of being
// compiled into call sites. The paper pair (HBM + DDR4-1600) and the
// §6.3.4 future pair reuse the original constructors, so their presets are
// field-identical to the pre-registry hardwired values — pinned by
// TestPresetPinnedParameters and TestSpecPresetBitIdentical.

// HBM2 returns a second-generation stacked spec: 1.2 GHz I/O (2.4 Gb/s per
// pin), the same 128-bit pseudo-channel bus and 16 banks, with core timing
// scaled to the faster clock (~11.7/11.7/11.7/28 ns).
func HBM2() Spec {
	return Spec{
		Name:     "HBM2",
		BusFreq:  1200 * clock.MHz,
		BusBits:  128,
		Channels: 8,
		Banks:    16,
		RowBytes: 8192,
		CAS:      14, RCD: 14, RP: 14, RAS: 34,
	}
}

// HBM3 returns a third-generation stacked spec: 3.2 GHz I/O clock,
// 128-bit bus, 32 banks. Core latencies in nanoseconds stay roughly flat
// across generations, so the cycle counts grow with the clock.
func HBM3() Spec {
	return Spec{
		Name:     "HBM3",
		BusFreq:  3200 * clock.MHz,
		BusBits:  128,
		Channels: 8,
		Banks:    32,
		RowBytes: 8192,
		CAS:      37, RCD: 37, RP: 37, RAS: 91,
	}
}

// DDR5_4800 returns a DDR5-4800 off-chip spec: 2.4 GHz I/O clock, 64-bit
// channel, 32 banks (8 bank groups), JEDEC 40-39-39-77 timing.
func DDR5_4800() Spec {
	return Spec{
		Name:     "DDR5-4800",
		BusFreq:  2400 * clock.MHz,
		BusBits:  64,
		Channels: 4,
		Banks:    32,
		RowBytes: 8192,
		CAS:      40, RCD: 39, RP: 39, RAS: 77,
	}
}

// LPDDR5_6400 returns a mobile LPDDR5-6400 spec: 3.2 GHz I/O clock over a
// narrow 32-bit channel, 16 banks, and the standard's small 2 KB rows —
// one migration page per row, so the co-location effect disappears and
// the layout's row geometry genuinely differs from the 8 KB parts.
func LPDDR5_6400() Spec {
	return Spec{
		Name:     "LPDDR5-6400",
		BusFreq:  3200 * clock.MHz,
		BusBits:  32,
		Channels: 4,
		Banks:    16,
		RowBytes: 2048,
		CAS:      36, RCD: 36, RP: 42, RAS: 87,
	}
}

// NVMPCM returns an NVM-like (phase-change) tier: DDR4-class bus, 4 KB
// rows, a slow activation (media read ~120 ns dominates tRCD) and a
// strongly asymmetric write — WriteExtra adds ~500 ns of media programming
// to every write. The MigrantStore-style OS migration policy targets
// exactly this kind of slow tier.
func NVMPCM() Spec {
	return Spec{
		Name:     "NVM-PCM",
		BusFreq:  800 * clock.MHz,
		BusBits:  64,
		Channels: 4,
		Banks:    16,
		RowBytes: 4096,
		CAS:      11, RCD: 96, RP: 11, RAS: 120,
		WriteExtra: 400,
	}
}

// CXLDDR5 returns a CXL-attached DDR5 expansion tier: DDR5-4800 device
// timing behind a serial link with ~100 ns one-way traversal (controller,
// flit packing and retimer latency), so every access pays the round trip
// on top of the device's own service time.
func CXLDDR5() Spec {
	s := DDR5_4800()
	s.Name = "CXL-DDR5"
	s.LinkTime = 100 * clock.Nanosecond
	return s
}

// presets maps canonical preset names to their constructors, and aliases
// lets the common shorthand (DDR4, DDR5, NVM, CXL) resolve to a canonical
// preset. Lookup is case-insensitive.
var presets = map[string]func() Spec{
	"HBM":         HBM,
	"HBM-4GHz":    HBMOverclocked,
	"HBM2":        HBM2,
	"HBM3":        HBM3,
	"DDR4-1600":   DDR4_1600,
	"DDR4-2400":   DDR4_2400,
	"DDR5-4800":   DDR5_4800,
	"LPDDR5-6400": LPDDR5_6400,
	"NVM-PCM":     NVMPCM,
	"CXL-DDR5":    CXLDDR5,
}

var aliases = map[string]string{
	"DDR4":   "DDR4-1600",
	"DDR5":   "DDR5-4800",
	"LPDDR5": "LPDDR5-6400",
	"NVM":    "NVM-PCM",
	"CXL":    "CXL-DDR5",
}

// PresetNames returns the canonical preset names, sorted.
func PresetNames() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Presets returns every registered spec, in PresetNames order.
func Presets() []Spec {
	names := PresetNames()
	out := make([]Spec, len(names))
	for i, n := range names {
		out[i] = presets[n]()
	}
	return out
}

// Preset resolves a preset by canonical name or alias (case-insensitive).
// Unknown names return an error listing the valid options.
func Preset(name string) (Spec, error) {
	key := resolvePresetKey(name)
	if key == "" {
		return Spec{}, fmt.Errorf("dram: unknown spec %q (valid: %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return presets[key](), nil
}

// PresetPair resolves a (fast, slow) pair of preset names; an empty name
// selects that level of the paper pair, HBM over DDR4-1600 (Table 2).
// The error names the level that failed, fast first.
func PresetPair(fast, slow string) (f, s Spec, err error) {
	if fast == "" {
		fast = "HBM"
	}
	if slow == "" {
		slow = "DDR4-1600"
	}
	if f, err = Preset(fast); err != nil {
		return f, s, fmt.Errorf("fast spec: %w", err)
	}
	if s, err = Preset(slow); err != nil {
		return f, s, fmt.Errorf("slow spec: %w", err)
	}
	return f, s, nil
}

// resolvePresetKey maps a user-supplied name to its canonical registry
// key, or "" when unknown.
func resolvePresetKey(name string) string {
	for canonical := range presets {
		if strings.EqualFold(name, canonical) {
			return canonical
		}
	}
	for alias, canonical := range aliases {
		if strings.EqualFold(name, alias) {
			return canonical
		}
	}
	return ""
}

// MustPreset is Preset for known-good names; it panics on error.
func MustPreset(name string) Spec {
	s, err := Preset(name)
	if err != nil {
		panic(err)
	}
	return s
}
