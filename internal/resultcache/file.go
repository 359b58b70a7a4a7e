package resultcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// MPR1 store file layout (everything little-endian), mirroring the MPS1
// trace snapshot format's conventions:
//
//	magic   "MPR1" (4 bytes)
//	keyLen  uint16, then the canonical CellKey line (keyLen bytes)
//	payLen  uint32, then the payload (payLen bytes, codec named by the
//	        key's kind field)
//	sum     uint64 FNV-1a over the key and payload bytes
//
// The checksum closes the file: trailing bytes, truncation, or a flipped
// bit anywhere all fail decode. Store readers treat every decode failure
// as a miss (regenerate and overwrite), never as an error — a cache must
// not be able to fail a run that would succeed without it.

const fileMagic = "MPR1"

// Size bounds. Keys are one printed line; payloads are a few hundred
// bytes of metrics. The caps exist so a corrupt length field cannot
// demand a huge allocation.
const (
	maxKeyLen     = 1 << 15
	maxPayloadLen = 1 << 24
)

// ErrBadFile reports a malformed MPR1 file. Store lookups translate it
// into a stale miss; it surfaces only from direct DecodeFile calls.
var ErrBadFile = errors.New("resultcache: malformed result file")

// EncodeFile frames a canonical key and its payload as an MPR1 file.
func EncodeFile(key CellKey, payload []byte) []byte {
	return encodeFrame(key.Canonical(), payload)
}

// encodeFrame frames an already rendered canonical key line.
func encodeFrame(canon string, payload []byte) []byte {
	out := make([]byte, 0, len(fileMagic)+2+len(canon)+4+len(payload)+8)
	out = append(out, fileMagic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(canon)))
	out = append(out, canon...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	h := fnv.New64a()
	h.Write([]byte(canon))
	h.Write(payload)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// DecodeFile parses an MPR1 file into its key and payload. The returned
// payload aliases b. Errors wrap ErrBadFile and name the offset that
// failed, like the trace readers. It is the strict path for frames from
// untrusted sources: the embedded key must pass ParseKey, which accepts
// only a key's exact canonical rendering.
func DecodeFile(b []byte) (CellKey, []byte, error) {
	canon, payload, err := decodeFrame(b)
	if err != nil {
		return CellKey{}, nil, err
	}
	key, err := ParseKey(string(canon))
	if err != nil {
		return CellKey{}, nil, fmt.Errorf("%w: %w", ErrBadFile, err)
	}
	return key, payload, nil
}

// decodeFrame checks an MPR1 file's framing and checksum and returns the
// embedded key line and payload, both aliasing b, without interpreting
// the key. The store read path compares the key line byte-for-byte with
// the requested key's rendering, which implies it is canonical.
func decodeFrame(b []byte) (canon, payload []byte, err error) {
	off := 0
	need := func(n int, what string) error {
		if len(b)-off < n {
			return fmt.Errorf("%w: truncated %s at byte offset %d (want %d bytes, have %d)",
				ErrBadFile, what, off, n, len(b)-off)
		}
		return nil
	}
	if err := need(len(fileMagic), "magic"); err != nil {
		return nil, nil, err
	}
	if string(b[:len(fileMagic)]) != fileMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrBadFile, b[:len(fileMagic)], fileMagic)
	}
	off = len(fileMagic)
	if err := need(2, "key length"); err != nil {
		return nil, nil, err
	}
	keyLen := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if keyLen > maxKeyLen {
		return nil, nil, fmt.Errorf("%w: key length %d exceeds %d", ErrBadFile, keyLen, maxKeyLen)
	}
	if err := need(keyLen, "key"); err != nil {
		return nil, nil, err
	}
	canon = b[off : off+keyLen]
	off += keyLen
	if err := need(4, "payload length"); err != nil {
		return nil, nil, err
	}
	payLen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if payLen > maxPayloadLen {
		return nil, nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFile, payLen, maxPayloadLen)
	}
	if err := need(payLen, "payload"); err != nil {
		return nil, nil, err
	}
	payload = b[off : off+payLen]
	off += payLen
	if err := need(8, "checksum"); err != nil {
		return nil, nil, err
	}
	sum := binary.LittleEndian.Uint64(b[off:])
	off += 8
	if off != len(b) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrBadFile, len(b)-off, off)
	}
	h := fnv.New64a()
	h.Write(canon)
	h.Write(payload)
	if got := h.Sum64(); got != sum {
		return nil, nil, fmt.Errorf("%w: checksum %016x, want %016x", ErrBadFile, got, sum)
	}
	return canon, payload, nil
}
