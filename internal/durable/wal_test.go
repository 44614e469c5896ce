package durable

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func frames(payloads ...string) []byte {
	buf := []byte(walMagic)
	for _, p := range payloads {
		buf = appendFrame(buf, []byte(p))
	}
	return buf
}

func scanAll(t *testing.T, data []byte) ([]string, scanResult) {
	t.Helper()
	var got []string
	res, err := scanFrames(bytes.NewReader(data), walMagic, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("scanFrames: %v", err)
	}
	return got, res
}

func TestScanRoundTrip(t *testing.T) {
	in := []string{"", "a", `{"k":"epoch","epoch":3}`, string(make([]byte, 1000))}
	got, res := scanAll(t, frames(in...))
	if len(got) != len(in) || res.torn || res.corrupt {
		t.Fatalf("got %d frames (torn=%v corrupt=%v), want %d clean", len(got), res.torn, res.corrupt, len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

// TestScanTornTail truncates the file at every possible byte offset; the
// scan must return exactly the whole frames before the cut, flag the
// tail as torn, and never error or panic.
func TestScanTornTail(t *testing.T) {
	full := frames("first", "second", "third")
	wholeAt := func(cut int) int {
		// how many complete frames fit in the first cut bytes
		n, off := 0, len(walMagic)
		for _, p := range []string{"first", "second", "third"} {
			off += frameHeader + len(p)
			if cut >= off {
				n++
			}
		}
		return n
	}
	for cut := 0; cut < len(full); cut++ {
		got, res := scanAll(t, full[:cut])
		if want := wholeAt(cut); len(got) != want {
			t.Fatalf("cut %d: %d frames, want %d", cut, len(got), want)
		}
		if res.corrupt {
			t.Fatalf("cut %d: flagged corrupt, want torn/clean", cut)
		}
	}
}

// TestScanBitFlip flips each byte of a two-frame file: the scan must
// never panic and never return a frame whose payload was altered.
func TestScanBitFlip(t *testing.T) {
	full := frames("payload-one", "payload-two")
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		var got []string
		_, err := scanFrames(bytes.NewReader(mut), walMagic, func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil && err != errBadMagic {
			t.Fatalf("flip %d: unexpected error %v", i, err)
		}
		for _, p := range got {
			if p != "payload-one" && p != "payload-two" {
				t.Fatalf("flip %d: surfaced altered payload %q", i, p)
			}
		}
	}
}

func TestScanHugeLengthIsCorruptNotAllocation(t *testing.T) {
	buf := []byte(walMagic)
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxRecordBytes+1)
	buf = append(buf, hdr[:]...)
	buf = append(buf, make([]byte, 64)...)
	got, res := scanAll(t, buf)
	if len(got) != 0 || !res.corrupt {
		t.Fatalf("oversized length prefix: frames=%d corrupt=%v, want 0/true", len(got), res.corrupt)
	}
}

func TestScanBadMagic(t *testing.T) {
	_, err := scanFrames(bytes.NewReader([]byte("NOTMAGIC")), walMagic, nil)
	if err != errBadMagic {
		t.Fatalf("err = %v, want errBadMagic", err)
	}
}

// TestScanReusesPayloadBuffer: small frames are read into one buffer, a
// frame above maxKeptBuf still surfaces whole, and the frames after it
// are not read into its buffer.
func TestScanReusesPayloadBuffer(t *testing.T) {
	big := strings.Repeat("x", 2*maxKeptBuf)
	var ptrs []*byte
	var caps []int
	var got []string
	_, err := scanFrames(bytes.NewReader(frames("one", "two", big, "three", "four")), walMagic, func(p []byte) error {
		ptrs = append(ptrs, &p[0])
		caps = append(caps, cap(p))
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"one", "two", big, "three", "four"}; !reflect.DeepEqual(got, want) {
		t.Fatal("payloads differ from the frames written")
	}
	if ptrs[0] != ptrs[1] || ptrs[3] != ptrs[4] {
		t.Error("small payloads were not read into one reused buffer")
	}
	for _, i := range []int{3, 4} {
		if caps[i] > maxKeptBuf {
			t.Errorf("frame %d read into a kept %d-byte buffer", i, caps[i])
		}
	}
}
