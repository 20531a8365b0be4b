package rtmodel

import (
	"bytes"
	"math"
	"testing"
)

// FuzzBinaryFrameDecode throws arbitrary bytes at the wire envelope,
// the frame splitter and the primitive decoder. Malformed input must
// produce a clean error — never a panic, and never an allocation
// larger than the input justifies (the decoder validates every
// declared length against the remaining bytes before allocating).
func FuzzBinaryFrameDecode(f *testing.F) {
	// Valid seeds: an envelope, a bare frame sequence, and a payload of
	// mixed primitives.
	var e Enc
	e.Uvarint(3)
	e.String("core")
	e.String("core")
	e.F64(1.5)
	e.Bool(true)
	f.Add(AppendFrame(AppendWireHeader(nil), 2, e.Buf))
	f.Add(AppendFrame(AppendFrame(nil, 1, []byte("one")), 2, []byte("two")))
	f.Add(AppendWireHeader(nil))
	f.Add([]byte{WireMagic0, WireMagic1, WireVersion, 8, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Envelope path: header + frame + decode the payload as the
		// protocol layer would — counts, strings, numbers, sub-frames.
		if ft, payload, rest, err := DecodeEnvelope(data); err == nil {
			drainPayload(t, payload)
			_ = ft
			// Trailing bytes may hold more frames (batch-style).
			for len(rest) > 0 {
				var perr error
				_, payload, rest, perr = DecodeFrame(rest)
				if perr != nil {
					break
				}
				drainPayload(t, payload)
			}
		}
		// Bare-frame path.
		if _, payload, _, err := DecodeFrame(data); err == nil {
			drainPayload(t, payload)
		}
	})
}

// drainPayload decodes a payload as a primitive soup until the bytes
// run out or a read fails — the shape does not matter, only that no
// byte sequence can panic the decoder or desynchronize its sticky
// error state.
func drainPayload(t *testing.T, payload []byte) {
	d := NewDec(payload)
	for i := 0; d.Err() == nil && d.Remaining() > 0; i++ {
		switch i % 5 {
		case 0:
			_ = d.String()
		case 1:
			d.Uvarint()
		case 2:
			d.Bool()
		case 3:
			d.F64()
		case 4:
			d.Count(MaxWireCount)
		}
	}
	if d.Remaining() < 0 {
		t.Fatalf("decoder consumed past the end: %d", d.Remaining())
	}
}

// FuzzRTModelRoundTrip feeds arbitrary bytes into the runtime-model
// loader. Any input the loader accepts must re-encode deterministically:
// Save(Load(x)) loaded and saved again is byte-identical (the format's
// stability promise, which fingerprinting and the binary protocol's
// pre-serialized responses both rely on).
func FuzzRTModelRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := Build(sample()).Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// A NaN attribute value: the model must still equal itself after a
	// save/load round trip (values compare by their bits).
	nan := goldenModel()
	nan.Nodes[1].Attrs[0].Value = math.NaN()
	seed.Reset()
	if err := nan.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return // malformed input: a clean error is the contract
		}
		var first bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("saving a loaded model: %v", err)
		}
		m2, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		if !Equal(m, m2) {
			t.Fatal("model changed across save/load")
		}
		var second bytes.Buffer
		if err := m2.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not byte-stable: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
