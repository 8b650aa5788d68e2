package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriterBitLen(t *testing.T) {
	var w Writer
	if w.BitLen() != 0 {
		t.Fatalf("empty writer BitLen = %d, want 0", w.BitLen())
	}
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBit(1)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d, want 3", w.BitLen())
	}
	if got := len(w.Bytes()); got != 1 {
		t.Fatalf("Bytes len = %d, want 1", got)
	}
	// MSB-first: bits 101 -> 0b1010_0000.
	if w.Bytes()[0] != 0xa0 {
		t.Fatalf("Bytes[0] = %#x, want 0xa0", w.Bytes()[0])
	}
}

func TestBitRoundTrip(t *testing.T) {
	var w Writer
	pattern := []uint{1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes(), w.BitLen())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("read past end: err = %v, want ErrShortMessage", err)
	}
}

func TestWriteUintWidths(t *testing.T) {
	for width := 0; width <= 64; width++ {
		var w Writer
		v := uint64(0xdeadbeefcafebabe)
		w.WriteUint(v, width)
		if w.BitLen() != width {
			t.Fatalf("width %d: BitLen = %d", width, w.BitLen())
		}
		r := NewReader(w.Bytes(), w.BitLen())
		got, err := r.ReadUint(width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		want := v
		if width < 64 {
			want = v & ((1 << uint(width)) - 1)
		}
		if got != want {
			t.Fatalf("width %d: got %#x, want %#x", width, got, want)
		}
	}
}

func TestReadUintBadWidth(t *testing.T) {
	r := NewReader([]byte{0xff}, -1)
	if _, err := r.ReadUint(65); !errors.Is(err, ErrWidth) {
		t.Fatalf("ReadUint(65) err = %v, want ErrWidth", err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, 1<<64 - 1}
	for _, v := range cases {
		var w Writer
		w.WriteUvarint(v)
		// Same byte layout as the standard library's LEB128 uvarint.
		if want := 8 * len(binary.AppendUvarint(nil, v)); w.BitLen() != want {
			t.Fatalf("v=%d: BitLen=%d, want %d", v, w.BitLen(), want)
		}
		got, err := NewReader(w.Bytes(), w.BitLen()).ReadUvarint()
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if got != v {
			t.Fatalf("roundtrip %d -> %d", v, got)
		}
	}
}

func TestGammaRoundTrip(t *testing.T) {
	cases := []uint64{1, 2, 3, 4, 7, 8, 255, 1 << 20, 1<<63 - 1}
	for _, v := range cases {
		var w Writer
		w.WriteGamma(v)
		if w.BitLen() != GammaBits(v) {
			t.Fatalf("v=%d: BitLen=%d, GammaBits=%d", v, w.BitLen(), GammaBits(v))
		}
		got, err := NewReader(w.Bytes(), w.BitLen()).ReadGamma()
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if got != v {
			t.Fatalf("roundtrip %d -> %d", v, got)
		}
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteGamma(0) did not panic")
		}
	}()
	var w Writer
	w.WriteGamma(0)
}

func TestQuickUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteUvarint(v)
		got, err := NewReader(w.Bytes(), w.BitLen()).ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	// Interleave heterogeneous writes and verify an exact roundtrip.
	f := func(a uint64, b bool, c uint16, d uint8) bool {
		var w Writer
		w.WriteUvarint(a)
		w.WriteBool(b)
		w.WriteUint(uint64(c), 16)
		w.WriteGamma(uint64(d) + 1)
		r := NewReader(w.Bytes(), w.BitLen())
		ga, err1 := r.ReadUvarint()
		gb, err2 := r.ReadBool()
		gc, err3 := r.ReadUint(16)
		gd, err4 := r.ReadGamma()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return ga == a && gb == b && gc == uint64(c) && gd == uint64(d)+1 && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBytesRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBit(1) // force non-byte alignment
	payload := []byte{0x00, 0xff, 0x5a, 0x12}
	w.WriteBytes(payload)
	r := NewReader(w.Bytes(), w.BitLen())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], payload[i])
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := BitsFor(c.n); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteUvarint(12345)
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("after Reset: BitLen=%d len=%d", w.BitLen(), len(w.Bytes()))
	}
	w.WriteBit(1)
	if w.Bytes()[0] != 0x80 {
		t.Fatalf("write after Reset produced %#x", w.Bytes()[0])
	}
}

func TestReadUvarintOverflow(t *testing.T) {
	var w Writer
	// 10 groups of all-ones with continuation bits: exceeds 64 bits.
	for i := 0; i < 10; i++ {
		w.WriteBit(1)
		w.WriteUint(0x7f, 7)
	}
	w.WriteBit(0)
	w.WriteUint(0x7f, 7)
	if _, err := NewReader(w.Bytes(), w.BitLen()).ReadUvarint(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestFuzzLikeRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var w Writer
		type op struct {
			kind  int
			v     uint64
			width int
		}
		var ops []op
		for i := 0; i < 50; i++ {
			o := op{kind: rng.Intn(3)}
			switch o.kind {
			case 0:
				o.v = rng.Uint64()
				o.width = rng.Intn(65)
				if o.width < 64 {
					o.v &= (1 << uint(o.width)) - 1
				}
				w.WriteUint(o.v, o.width)
			case 1:
				o.v = rng.Uint64() >> uint(rng.Intn(64))
				w.WriteUvarint(o.v)
			case 2:
				o.v = rng.Uint64()>>uint(rng.Intn(63)) + 1
				w.WriteGamma(o.v)
			}
			ops = append(ops, o)
		}
		r := NewReader(w.Bytes(), w.BitLen())
		for i, o := range ops {
			var got uint64
			var err error
			switch o.kind {
			case 0:
				got, err = r.ReadUint(o.width)
			case 1:
				got, err = r.ReadUvarint()
			case 2:
				got, err = r.ReadGamma()
			}
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
			if got != o.v {
				t.Fatalf("trial %d op %d: got %d, want %d", trial, i, got, o.v)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits left over", trial, r.Remaining())
		}
	}
}

// GammaBits reports the encoded size in bits of WriteGamma(v), v ≥ 1.
func GammaBits(v uint64) int {
	if v == 0 {
		panic("wire: GammaBits requires v >= 1")
	}
	return 2*bits.Len64(v) - 1
}
