package ckptio

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"runtime"
	"testing"
)

// hugeCount is a 45-byte CRC-valid snapshot whose input-section entry
// count is 0xFFFFFFFF: design "x", fingerprint 0, cycle 0, no stats,
// then the count and nothing else.
func hugeCount() []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 'x')
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0xFFFFFFFF)
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Design: "soc", Fingerprint: 0xfeed, Cycle: 1234,
		Stats:  []uint64{1, 2, 3},
		Inputs: [][]uint64{{7}, {8, 9}},
		Regs:   [][]uint64{{1}, {}, {2, 3, 4}},
		Mems:   [][]uint64{{5, 6}},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the snapshot:\nwant %+v\ngot  %+v", s, got)
	}
}

// TestDecodeHugeCount: a corrupt section count is an error, not an
// allocation sized by the count.
func TestDecodeHugeCount(t *testing.T) {
	b := hugeCount()
	if len(b) != 45 {
		t.Fatalf("regression input is %d bytes, want 45", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a snapshot claiming 2^32-1 inputs in 45 bytes")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting the input allocated %d bytes", n)
	}
}

// fixCRC makes b a checksum-valid candidate: it restores the magic and
// rewrites the trailing CRC, so fuzz mutations reach the section parser
// instead of dying at the checksum.
func fixCRC(b []byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) < len(magic)+8 {
		return b
	}
	copy(b, magic[:])
	body := b[:len(b)-8]
	binary.LittleEndian.PutUint64(b[len(body):], crc64.Checksum(body, crcTable))
	return b
}

// FuzzDecode: Decode never panics or over-allocates on any input, and
// whatever it accepts re-encodes to the same bytes (the format is
// canonical).
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleSnapshot()))
	f.Add(Encode(&Snapshot{}))
	f.Add(hugeCount())
	f.Fuzz(func(t *testing.T, b []byte) {
		b = fixCRC(b)
		s, err := Decode(b)
		if err != nil {
			return
		}
		if again := Encode(s); !bytes.Equal(again, b) {
			t.Fatalf("accepted input does not re-encode to itself:\nin  %x\nout %x", b, again)
		}
	})
}
