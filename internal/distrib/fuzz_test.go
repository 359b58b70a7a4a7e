package distrib

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/resultcache"
)

// checkpointFile returns the MPC1 bytes a coordinator over jobs writes
// after completing the first `complete` cells of its plan and leasing up
// to two more.
func checkpointFile(tb testing.TB, jobs []exp.Job, complete int) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.mpc1")
	co, err := New(Config{Jobs: jobs, LeaseTTL: time.Minute, CheckpointPath: path})
	if err != nil {
		tb.Fatal(err)
	}
	if complete > 0 {
		g := co.Lease(LeaseRequest{Worker: "a", Max: complete})
		co.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "a", Cells: runCells(tb, co, g, resultcache.New())})
	}
	co.Lease(LeaseRequest{Worker: "b", Max: 2})
	if err := co.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// reseal replaces b's trailing checksum with the FNV-1a of everything
// before it, so a mutated body gets past the checksum gate and into the
// parser.
func reseal(b []byte) []byte {
	if len(b) < 8 {
		return b
	}
	body := b[:len(b)-8]
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
}

// forgedCheckpoints returns bodies that keep valid's header (so they pass
// the plan checks once resealed) but forge the counts and lengths after
// it: a done count of 2^32-1 with no entries, a frame length of 2^63, and
// a lease index of 2^63. Each once crashed restore: the count sized an
// allocation up front, and the uvarints wrapped negative when converted
// to int before their bounds checks.
func forgedCheckpoints(valid []byte) [][]byte {
	specLen := int(binary.LittleEndian.Uint32(valid[4:]))
	hdr := valid[:4+4+specLen+8+4]
	forge := func(tail ...[]byte) []byte {
		b := append([]byte(nil), hdr...)
		for _, t := range tail {
			b = append(b, t...)
		}
		return reseal(append(b, make([]byte, 8)...))
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	seq := make([]byte, 8)
	return [][]byte{
		forge(u32(1<<32 - 1)),
		forge(u32(1), uv(0), uv(1<<63), u32(0), seq),
		forge(u32(0), u32(1), uv(1), []byte("x"), uv(1), []byte("w"), make([]byte, 8), u32(1), uv(1<<63), seq),
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes to the MPC1 restore as the
// checkpoint file of a small plan. Restore must never panic, must adopt
// between zero and total cells, and must leave every cell in exactly one
// of done, leased or pending. Each input is tried as written and resealed
// with a valid checksum, so mutations also reach the parser behind the
// checksum gate.
func FuzzCheckpointRestore(f *testing.F) {
	valid := checkpointFile(f, smallJobs(), 2)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a checkpoint at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(checkpointFile(f, sweepJobs(), 1)) // a foreign plan's checkpoint
	for _, b := range forgedCheckpoints(valid) {
		f.Add(b)
	}

	// Inputs run one at a time within a fuzzing process, so they can share
	// one checkpoint path.
	path := filepath.Join(f.TempDir(), "fuzz.mpc1")
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, file := range [][]byte{b, reseal(b)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			co, err := New(Config{Jobs: smallJobs(), LeaseTTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			n := co.restoreCheckpoint(path)
			s := co.Status()
			if n < 0 || n > s.Total {
				t.Fatalf("restored %d cells of %d", n, s.Total)
			}
			if s.Done != n {
				t.Fatalf("restore reported %d cells, status shows %d done", n, s.Done)
			}
			if s.Done+s.Leased+s.Pending != s.Total {
				t.Fatalf("done %d + leased %d + pending %d != total %d", s.Done, s.Leased, s.Pending, s.Total)
			}
		}
	})
}
