package distrib

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/resultcache"
)

// MPC1 checkpoint layout (everything little-endian, like the MPR1 result
// files it embeds):
//
//	magic    "MPC1" (4 bytes)
//	specLen  uint32, then the SweepSpec JSON (specLen bytes)
//	planFP   uint64 — the plan fingerprint the frames belong to
//	total    uint32 — the plan's cell count
//	done     uint32, then done × (index uvarint, frameLen uvarint, frame)
//	         in ascending index order — each frame a complete MPR1 file
//	leases   uint32, then per lease: idLen uvarint, id, workerLen uvarint,
//	         worker, deadline int64 (unix ms), n uint32, n × index uvarint
//	seq      uint64 — the lease-id sequence high-water mark
//	sum      uint64 FNV-1a over everything before it
//
// Restore requires the magic, checksum, planFP and total to match the
// live plan exactly; anything else — missing file, truncation, garbage, a
// checkpoint from different jobs or a different engine version (planFP
// covers sim.Version) — is silently a fresh start. A checkpoint can only
// remove work, never fail or change a sweep, mirroring the result cache's
// stance. Embedded frames are re-verified cell by cell on restore, so
// even a checksum-colliding corruption of one frame costs exactly that
// cell, not the file.

const checkpointMagic = "MPC1"

// checkpointBytes serializes the coordinator's state under mu.
func (co *Coordinator) checkpointBytes() []byte {
	spec, _ := json.Marshal(co.spec)
	out := make([]byte, 0, 64+len(spec))
	out = append(out, checkpointMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(spec)))
	out = append(out, spec...)
	out = binary.LittleEndian.AppendUint64(out, co.planFP)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(co.states)))
	out = binary.LittleEndian.AppendUint32(out, uint32(co.doneCount))
	for i, st := range co.states {
		if st != cellDone {
			continue
		}
		out = binary.AppendUvarint(out, uint64(i))
		out = binary.AppendUvarint(out, uint64(len(co.frames[i])))
		out = append(out, co.frames[i]...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(co.leases)))
	for _, l := range co.leases {
		out = binary.AppendUvarint(out, uint64(len(l.id)))
		out = append(out, l.id...)
		out = binary.AppendUvarint(out, uint64(len(l.worker)))
		out = append(out, l.worker...)
		out = binary.LittleEndian.AppendUint64(out, uint64(l.deadline.UnixMilli()))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(l.indices)))
		for _, i := range l.indices {
			out = binary.AppendUvarint(out, uint64(i))
		}
	}
	out = binary.LittleEndian.AppendUint64(out, co.seq)
	h := fnv.New64a()
	h.Write(out)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// Checkpoint writes the completed-cell set and lease table to the
// configured path, atomically (temp file + rename). A no-op when no path
// is configured or nothing changed since the last write.
func (co *Coordinator) Checkpoint() error {
	path := co.cfg.CheckpointPath
	if path == "" {
		return nil
	}
	co.mu.Lock()
	if !co.dirty {
		co.mu.Unlock()
		return nil
	}
	b := co.checkpointBytes()
	co.dirty = false
	co.mu.Unlock()

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".mpc-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// restoreCheckpoint adopts the completed cells and lease table of the
// MPC1 file at path, if it matches the live plan. Returns how many cells
// were restored; every failure mode returns 0 and leaves the coordinator
// untouched.
func (co *Coordinator) restoreCheckpoint(path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	if len(b) < len(checkpointMagic)+8 || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return 0
	}
	body, sum := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return 0
	}

	off := len(checkpointMagic)
	// Lengths and indices compare as uint64: a uvarint can exceed
	// MaxInt, and converting it first would wrap negative past the checks.
	need := func(n uint64) bool { return uint64(len(body)-off) >= n }
	u32 := func() (uint32, bool) {
		if !need(4) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if !need(8) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v, true
	}
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}

	specLen, ok := u32()
	if !ok || !need(uint64(specLen)) {
		return 0
	}
	off += int(specLen) // the plan fingerprint subsumes the spec
	planFP, ok := u64()
	if !ok || planFP != co.planFP {
		return 0
	}
	total, ok := u32()
	if !ok || int(total) != co.plan.Len() {
		return 0
	}
	done, ok := u32()
	if !ok {
		return 0
	}

	type restored struct {
		index int
		frame []byte
	}
	// No capacity hints from the file's counts: a forged count must cost
	// nothing before the entries it promises fail to parse.
	var cells []restored
	for n := uint32(0); n < done; n++ {
		idx, ok1 := uv()
		frameLen, ok2 := uv()
		if !ok1 || !ok2 || !need(frameLen) || idx >= uint64(co.plan.Len()) {
			return 0
		}
		frame := body[off : off+int(frameLen)]
		off += int(frameLen)
		cells = append(cells, restored{int(idx), frame})
	}

	type restoredLease struct {
		id, worker string
		deadline   time.Time
		indices    []int
	}
	leaseCount, ok := u32()
	if !ok {
		return 0
	}
	var leases []restoredLease
	for n := uint32(0); n < leaseCount; n++ {
		idLen, ok1 := uv()
		if !ok1 || !need(idLen) {
			return 0
		}
		id := string(body[off : off+int(idLen)])
		off += int(idLen)
		workerLen, ok2 := uv()
		if !ok2 || !need(workerLen) {
			return 0
		}
		worker := string(body[off : off+int(workerLen)])
		off += int(workerLen)
		deadlineMs, ok3 := u64()
		ni, ok4 := u32()
		if !ok3 || !ok4 {
			return 0
		}
		var indices []int
		for k := uint32(0); k < ni; k++ {
			idx, ok := uv()
			if !ok || idx >= uint64(co.plan.Len()) {
				return 0
			}
			indices = append(indices, int(idx))
		}
		leases = append(leases, restoredLease{id, worker, time.UnixMilli(int64(deadlineMs)), indices})
	}
	seq, ok := u64()
	if !ok || off != len(body) {
		return 0
	}

	// The file is structurally sound and belongs to this plan; adopt it.
	// Each frame is still verified individually — a bad frame costs only
	// its own cell.
	co.mu.Lock()
	defer co.mu.Unlock()
	adopted := 0
	for _, c := range cells {
		key, _, err := resultcache.DecodeFile(c.frame)
		if err != nil || key != co.plan.Key(c.index) || co.states[c.index] == cellDone {
			continue
		}
		frame := append([]byte(nil), c.frame...) // detach from the file buffer
		co.markDoneLocked(c.index, frame)
		adopted++
	}
	// Restored leases resume with their original deadlines: a coordinator
	// restarting faster than the TTL keeps in-flight work assigned, and
	// the normal expiry path re-queues anything whose worker died with it.
	for _, rl := range leases {
		indices := make([]int, 0, len(rl.indices))
		for _, i := range rl.indices {
			if co.states[i] == cellPending {
				co.states[i] = cellLeased
				indices = append(indices, i)
			}
		}
		if len(indices) == 0 {
			continue
		}
		co.leases[rl.id] = &lease{id: rl.id, worker: rl.worker, indices: indices, deadline: rl.deadline}
	}
	if seq > co.seq {
		co.seq = seq
	}
	co.dirty = false
	co.checkDoneLocked()
	return adopted
}
