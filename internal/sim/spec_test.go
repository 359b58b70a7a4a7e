package sim

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/mech"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hardwiredHBM and hardwiredDDR4 are the paper pair exactly as the
// pre-refactor constructors compiled them — literal structs, not calls
// into the spec registry — so the differential below proves the registry
// path changes nothing on the paper configuration.
func hardwiredHBM() dram.Spec {
	return dram.Spec{
		Name:     "HBM",
		BusFreq:  1 * clock.GHz,
		BusBits:  128,
		Channels: 8,
		Banks:    16,
		RowBytes: 8192,
		CAS:      7, RCD: 7, RP: 7, RAS: 17,
	}
}

func hardwiredDDR4() dram.Spec {
	return dram.Spec{
		Name:     "DDR4-1600",
		BusFreq:  800 * clock.MHz,
		BusBits:  64,
		Channels: 4,
		Banks:    16,
		RowBytes: 8192,
		CAS:      11, RCD: 11, RP: 11, RAS: 28,
	}
}

// TestSpecPresetBitIdentical runs every mechanism on the HBM+DDR4 paper
// configuration twice — once over the pre-refactor hardwired spec values,
// once over the registry presets — and requires field-identical Results.
// This is the refactor's contract: moving the paper pair into the
// declarative registry is a pure restructuring.
func TestSpecPresetBitIdentical(t *testing.T) {
	const n = 60_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	run := func(fast, slow dram.Spec, mc func(t testing.TB, b *mech.Backend) mech.Mechanism) stats.Result {
		b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), fast, slow))
		m := mc(t, b)
		defer mech.Release(m)
		e := New(b, m)
		res, err := e.Run(w.Name, snap.DecodedStream(&b.Geom))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, mc := range mechanisms {
		hardwired := run(hardwiredHBM(), hardwiredDDR4(), mc.build)
		preset := run(dram.MustPreset("HBM"), dram.MustPreset("DDR4-1600"), mc.build)
		diffResults(t, mc.name+" preset vs hardwired", preset, hardwired)
	}
}

// TestMigrantBatchedBitIdenticalAcrossSpecs holds the new mechanism to the
// engine's differential bar on every preset spec: for each preset the
// registry ships, a plain SliceStream run (engine-side decode) and a
// plane-bound snapshot run must agree field-for-field — including the
// presets with non-default row geometry (LPDDR5, NVM), write asymmetry
// (NVM) and link latency (CXL).
func TestMigrantBatchedBitIdenticalAcrossSpecs(t *testing.T) {
	const n = 40_000
	w, err := workload.Mix(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(w.MustStream(n, 11))
	snap := trace.Record(trace.NewSliceStream(reqs), len(reqs))
	defer snap.Release()

	mi := mechanisms[migrantIndex(t)]
	for _, preset := range dram.PresetNames() {
		// Stacked presets take the fast role against the paper's DDR4;
		// everything else takes the slow role behind the paper's HBM.
		fast, slow := dram.MustPreset("HBM"), dram.MustPreset(preset)
		if strings.HasPrefix(preset, "HBM") {
			fast, slow = dram.MustPreset(preset), dram.MustPreset("DDR4-1600")
		}
		runWith := func(s trace.Stream) stats.Result {
			b := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), fast, slow))
			m := mi.build(t, b)
			defer mech.Release(m)
			e := New(b, m)
			res, err := e.Run(w.Name, s)
			if err != nil {
				t.Fatalf("%s: %v", preset, err)
			}
			return res
		}
		serial := runWith(trace.NewSliceStream(reqs))
		planeBackend := mech.NewBackend(memsys.MustNew(addr.DefaultLayout(), fast, slow))
		decoded := runWith(snap.DecodedStream(&planeBackend.Geom))

		if serial.Requests != n {
			t.Fatalf("%s: serial replayed %d requests, want %d", preset, serial.Requests, n)
		}
		diffResults(t, "Migrant "+preset+" decoded vs serial", decoded, serial)
	}
}

// migrantIndex locates Migrant in the shared mechanisms table.
func migrantIndex(t *testing.T) int {
	t.Helper()
	for i, mc := range mechanisms {
		if mc.name == "Migrant" {
			return i
		}
	}
	t.Fatal("Migrant missing from mechanisms table")
	return -1
}
