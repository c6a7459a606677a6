package pipeproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

func frame(t testing.TB, typ byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := WriteFrame(&b, typ, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	for _, p := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, eagerPayload+5)} {
		typ, got, err := ReadFrame(bytes.NewReader(frame(t, TPoke, p)))
		if err != nil {
			t.Fatal(err)
		}
		if typ != TPoke || !bytes.Equal(got, p) {
			t.Fatalf("round trip of %d bytes returned type %#x, %d bytes", len(p), typ, len(got))
		}
	}
}

// header returns a frame header claiming n payload bytes.
func header(n uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, Magic)
	b = append(b, TStep)
	return binary.LittleEndian.AppendUint32(b, n)
}

func TestReadFrameOversized(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(header(MaxPayload + 1)))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("length above MaxPayload: got %v, want ErrBadFrame", err)
	}
}

// TestReadFrameTornLargeClaim: a header claiming MaxPayload bytes
// followed by a few is a truncation error that allocates about what
// arrived, not the claimed gigabyte.
func TestReadFrameTornLargeClaim(t *testing.T) {
	in := append(header(MaxPayload), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn frame: got %v, want ErrBadFrame", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("torn frame allocated %d bytes", n)
	}
}

// FuzzReadFrame drives the decoder two ways. Raw input must never panic,
// and a frame it accepts must re-encode to exactly the bytes it consumed.
// A well-formed frame built from (typ, payload) must round-trip, and
// every truncation or single-bit flip of it must be an error.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(f, THello, nil), TPeek, []byte("pc"), uint16(3), uint16(17))
	f.Add(frame(f, RValue, AppendWords(nil, []uint64{1, 2})), RErr, []byte{}, uint16(0), uint16(0))
	f.Add(header(MaxPayload+1), TStep, []byte{1, 2, 3}, uint16(12), uint16(40))
	f.Add(append(header(MaxPayload), 1, 2, 3), ROutput, []byte("hello\n"), uint16(9), uint16(70))
	f.Fuzz(func(t *testing.T, raw []byte, typ byte, payload []byte, cut, flip uint16) {
		r := bytes.NewReader(raw)
		if gt, gp, err := ReadFrame(r); err == nil {
			used := raw[:len(raw)-r.Len()]
			if again := frame(t, gt, gp); !bytes.Equal(again, used) {
				t.Fatalf("accepted frame does not re-encode:\nin  %x\nout %x", used, again)
			}
		}

		fr := frame(t, typ, payload)
		gt, gp, err := ReadFrame(bytes.NewReader(fr))
		if err != nil || gt != typ || !bytes.Equal(gp, payload) {
			t.Fatalf("round trip failed: type %#x→%#x, %d→%d bytes, err %v",
				typ, gt, len(payload), len(gp), err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(fr[:int(cut)%len(fr)])); err == nil {
			t.Fatalf("torn frame (%d of %d bytes) accepted", int(cut)%len(fr), len(fr))
		}
		bad := append([]byte(nil), fr...)
		bit := int(flip) % (8 * len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
			t.Fatalf("frame with bit %d flipped accepted", bit)
		}
	})
}
