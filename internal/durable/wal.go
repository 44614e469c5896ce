// Package durable is the controller's crash-safe state store: a
// CRC-framed append-only write-ahead log plus periodic compacting
// snapshots, persisting anord's control-plane state — trained
// power-performance models, the session registry, last per-job caps, DR
// bid state, and the energy ledger's accumulated accounts — so a
// SIGKILL'd controller restarts with everything it knew.
//
// The file discipline mirrors the ANORFRv1 flight recorder: every frame
// carries its own length and CRC, a torn tail (the crash interrupting a
// write) silently ends replay at the last whole record, and corruption
// never panics — recovery is whatever valid prefix survived. Each
// process generation writes a fresh segment (never appends after a torn
// tail) and bumps a monotonic controller epoch used to fence superseded
// controllers out of the actuation path.
//
// A WAL record's payload is the compact JSON json.Marshal writes for a
// Record, encoded without reflection straight into the store's reused
// frame buffer (see internal/jsonc); the bytes are json.Marshal's, so
// segments written before and after read the same. Replay parses that
// canonical form directly and hands any other payload to json.Unmarshal,
// so what a payload restores does not depend on which path read it.
package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

const (
	// walMagic opens every WAL segment; snapMagic every snapshot;
	// epMagic every endpoint state file.
	walMagic  = "ANORWAL1"
	snapMagic = "ANORSNP1"
	epMagic   = "ANOREPS1"

	// frameHeader is [4B big-endian payload length][4B CRC32C of payload].
	frameHeader = 8

	// MaxRecordBytes bounds a single framed payload. A length prefix
	// beyond it is corruption, not a huge record, so replay never
	// allocates attacker-controlled sizes.
	MaxRecordBytes = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadMagic marks a file that is not ours (or whose head was
// destroyed); the whole file is skipped.
var errBadMagic = errors.New("durable: bad file magic")

// maxKeptBuf is the largest frame buffer a writer or a scan keeps for
// its next frame, so one outsized record does not pin its memory.
const maxKeptBuf = 64 << 10

// appendFrame appends one CRC frame for payload to dst.
func appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, payload...)
	sealFrame(dst[start:])
	return dst
}

// sealFrame fills in the header of frame, whose payload follows its
// first frameHeader bytes.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:frameHeader], crc32.Checksum(payload, crcTable))
}

// scanResult says how a frame scan ended.
type scanResult struct {
	frames int
	// torn: the file ends mid-frame — the expected shape after a crash.
	torn bool
	// corrupt: a frame failed its CRC or declared an impossible length;
	// everything after it is untrusted and skipped.
	corrupt bool
}

// scanFrames reads magic-prefixed CRC frames from r, calling fn on each
// whole, checksum-valid payload. It stops at the first torn or corrupt
// frame and reports how it stopped; only real I/O errors (and fn errors)
// are returned as errors. Payloads are read into one reused buffer, so
// fn must copy out whatever it keeps before it returns.
func scanFrames(r io.Reader, magic string, fn func(payload []byte) error) (scanResult, error) {
	var res scanResult
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			res.torn = true
			return res, nil
		}
		return res, err
	}
	if string(head) != magic {
		return res, errBadMagic
	}
	var hdr [frameHeader]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return res, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				res.torn = true
				return res, nil
			}
			return res, err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n > MaxRecordBytes {
			res.corrupt = true
			return res, nil
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, max(int(n), 4<<10)) // one buffer serves every ordinary record
		}
		payload := buf[:n]
		if cap(buf) > maxKeptBuf {
			buf = nil
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.torn = true
				return res, nil
			}
			return res, err
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:]) {
			res.corrupt = true
			return res, nil
		}
		res.frames++
		if fn != nil {
			if err := fn(payload); err != nil {
				return res, err
			}
		}
	}
}
