package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// protocolEndpoints are the POST endpoints FuzzProtocolDecode drives, in
// the order its selector byte picks them.
var protocolEndpoints = []string{pathLease, pathRenew, pathComplete}

// bodyTransport answers every client request with one fixed 200 body,
// so the client's response decode runs on it without a network.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
	}, nil
}

// FuzzProtocolDecode feeds arbitrary bodies to the coordinator's lease,
// renew and complete endpoints (Handler), on a small plan with one lease
// ("l1", two cells) outstanding, and to the client's decode of each
// response. Nothing may panic. A body the handler rejects must leave
// Status exactly as it was, and every cell must stay in exactly one of
// done, failed, leased or pending.
func FuzzProtocolDecode(f *testing.F) {
	seed, err := New(Config{Jobs: smallJobs(), LeaseTTL: time.Minute})
	if err != nil {
		f.Fatal(err)
	}
	grant := seed.Lease(LeaseRequest{Worker: "a", Max: 2})
	done, err := json.Marshal(CompleteRequest{LeaseID: grant.LeaseID, Worker: "a", Cells: runCells(f, seed, grant, resultcache.New())})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), []byte(`{"worker":"b","max":3}`))
	f.Add(uint8(0), []byte(`{"worker":"b","max":-1}`))
	f.Add(uint8(1), []byte(`{"lease_id":"l1"}`))
	f.Add(uint8(1), []byte(`{"lease_id":"l9"}`))
	f.Add(uint8(2), done)
	f.Add(uint8(2), []byte(`{"lease_id":"l1","worker":"b","cells":[{"index":0,"error":"boom"},{"index":1,"frame":"AAAA"},{"index":-1},{"index":99}]}`))
	f.Add(uint8(2), []byte(`{"lease_id":"l1","cells":[{"index":1e30}]}`))
	f.Add(uint8(2), []byte(`{"cells":null}`))
	f.Add(uint8(0), []byte(`[1,2]`))
	f.Add(uint8(1), []byte(``))
	f.Add(uint8(2), []byte(`{"done":true,"lease_id":"l2","indices":[0,1],"ttl_ms":5,"retry_ms":-1}`))
	f.Add(uint8(3), []byte(`{"spec":{"sim_version":1,"jobs":[{"experiment":"fig6"}]},"plan_fp":"12","total":4}`))

	// A fixed clock keeps Status free of wall-clock fields (worker
	// last-seen ages), so two snapshots compare exactly.
	epoch := time.Unix(1, 0)
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		co, err := New(Config{Jobs: smallJobs(), LeaseTTL: time.Minute, Now: func() time.Time { return epoch }})
		if err != nil {
			t.Fatal(err)
		}
		co.Lease(LeaseRequest{Worker: "a", Max: 2})
		before := co.Status()
		path := protocolEndpoints[int(which)%len(protocolEndpoints)]
		rec := httptest.NewRecorder()
		Handler(co).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		after := co.Status()
		if rec.Code != http.StatusOK && !reflect.DeepEqual(before, after) {
			t.Fatalf("%s rejected the body (HTTP %d) but changed Status from %+v to %+v", path, rec.Code, before, after)
		}
		if after.Done+after.Failed+after.Leased+after.Pending != after.Total {
			t.Fatalf("%s: done %d + failed %d + leased %d + pending %d != total %d",
				path, after.Done, after.Failed, after.Leased, after.Pending, after.Total)
		}

		c := &client{base: "http://coordinator", hc: &http.Client{Transport: bodyTransport(body)}}
		ctx := context.Background()
		c.Spec(ctx)
		c.Lease(ctx, LeaseRequest{Worker: "w", Max: 1})
		c.Renew(ctx, RenewRequest{LeaseID: "l1"})
		c.Complete(ctx, CompleteRequest{LeaseID: "l1", Worker: "w"})
	})
}
