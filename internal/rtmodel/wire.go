// Wire primitives and the binary query-protocol framing. Enc and Dec
// append and consume varints, fixed-width float64s, booleans and
// strings, with sticky, allocation-bounded decoding. Two formats ride
// on them:
//
//   - the runtime-model encodings of rtmodel.go: the .xrt file (Save,
//     Load) and the canonical stream that snapshot fingerprints hash
//     (WriteCanonical), one node record written by putNode, strings as
//     uvarint length plus bytes or as string-table indices;
//   - the xpdld binary protocol (Content-Type application/x-xpdl-bin),
//     which internal/serve builds from the envelope and frames below
//     and whose promises the README "Binary protocol" section states.
//
// Envelope layout (one message):
//
//	byte 0..1  magic "XB"
//	byte 2     wire version (1)
//	frame      one frame (below)
//
// Frame layout (also used standalone for /batch sub-results):
//
//	byte 0     frame type (a protocol-level message tag)
//	uvarint    payload length in bytes
//	payload    payload bytes
//
// Inside a payload, strings are interned (Enc.String, Dec.String): the
// first occurrence is encoded as uvarint(len<<1|1) followed by the
// bytes and enters a table shared by encoder and decoder; later
// occurrences encode as uvarint(tableIndex<<1). Strings longer than
// MaxInternLen and any string seen after the table reaches
// MaxInternStrings are never interned (both sides apply the same rule,
// so the tables stay in lock-step). Numbers are varint/uvarint or fixed
// 8-byte little-endian float64; booleans are one byte.
package rtmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire-format constants. Bump WireVersion only with a decoder that
// still accepts every earlier version (the compatibility promise).
const (
	WireMagic0  = 'X'
	WireMagic1  = 'B'
	WireVersion = 1

	// MaxFramePayload bounds a frame's declared payload size; declared
	// lengths beyond the remaining input are rejected before any
	// allocation either way.
	MaxFramePayload = 1 << 26

	// MaxInternLen is the longest string that enters the intern table.
	MaxInternLen = 256
	// MaxInternStrings caps the intern table size.
	MaxInternStrings = 1 << 16

	// MaxWireString bounds one decoded string length.
	MaxWireString = 1 << 20
	// MaxWireCount bounds one decoded collection count.
	MaxWireCount = 1 << 20
)

// FrameType tags one protocol message; the values are assigned by the
// protocol layer (internal/serve), not here.
type FrameType uint8

// ErrWire is wrapped by every wire-decoding error so callers can
// distinguish malformed input from transport failures.
var ErrWire = errors.New("rtmodel: malformed wire data")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// ---- encoder ----

// Enc appends wire-encoded primitives to Buf. The zero value is ready
// to use; Reset makes an Enc reusable (sync.Pool) without shedding its
// buffer or intern-table capacity.
type Enc struct {
	Buf []byte

	tab map[string]uint32
}

// Reset clears the buffer and the intern table, keeping both
// allocations for reuse.
func (e *Enc) Reset() {
	e.Buf = e.Buf[:0]
	clear(e.tab)
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) {
	e.Buf = binary.AppendUvarint(e.Buf, v)
}

// Varint appends a zig-zag signed varint.
func (e *Enc) Varint(v int64) {
	e.Buf = binary.AppendVarint(e.Buf, v)
}

// F64 appends a fixed-width little-endian float64.
func (e *Enc) F64(f float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(f))
}

// Bool appends one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	if v {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// String appends an interned string (see the package comment for the
// token layout).
func (e *Enc) String(s string) {
	if id, ok := e.tab[s]; ok {
		e.Uvarint(uint64(id) << 1)
		return
	}
	e.Uvarint(uint64(len(s))<<1 | 1)
	e.Buf = append(e.Buf, s...)
	if len(s) <= MaxInternLen && len(e.tab) < MaxInternStrings {
		if e.tab == nil {
			e.tab = make(map[string]uint32)
		}
		e.tab[s] = uint32(len(e.tab))
	}
}

// rawString appends s as uvarint length plus bytes, never interned:
// the string encoding of the runtime-model formats.
func (e *Enc) rawString(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// ---- decoder ----

// Dec consumes wire-encoded primitives from a byte slice. Errors are
// sticky: after the first malformed read every later read returns the
// zero value, so message decoders can read a whole struct and check
// Err once. Dec never allocates more than the input can justify: a
// declared length is validated against the remaining bytes before any
// make call.
type Dec struct {
	b   []byte
	off int
	tab []string
	err error
}

// NewDec decodes from b (which the Dec aliases; decoded strings are
// copies, so b may be reused once decoding finishes).
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = wireErr(format, args...)
	}
}

// Fail records err as the sticky error unless one is already set. It
// serves checks the primitives cannot make, such as a field's value
// or a nested frame decoded by a Dec of its own; err should wrap
// ErrWire.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint consumes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint consumes a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// F64 consumes a fixed-width float64.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bool consumes one byte; anything but 0 or 1 is malformed.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	c := d.b[d.off]
	d.off++
	if c > 1 {
		d.fail("bool byte %d at offset %d", c, d.off-1)
		return false
	}
	return c == 1
}

// String consumes an interned string token.
func (d *Dec) String() string {
	tok := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if tok&1 == 0 { // back-reference
		idx := tok >> 1
		if idx >= uint64(len(d.tab)) {
			d.fail("string back-reference %d beyond table size %d", idx, len(d.tab))
			return ""
		}
		return d.tab[idx]
	}
	l := tok >> 1
	s := d.take(l)
	// Mirror the encoder's interning rule exactly, or every later
	// back-reference would resolve to the wrong entry.
	if d.err == nil && l <= MaxInternLen && len(d.tab) < MaxInternStrings {
		d.tab = append(d.tab, s)
	}
	return s
}

// rawString consumes a string written by Enc.rawString.
func (d *Dec) rawString() string { return d.take(d.Uvarint()) }

// take consumes l bytes as a string copy; l is checked against
// MaxWireString and the remaining input first.
func (d *Dec) take(l uint64) string {
	if d.err != nil {
		return ""
	}
	if l > MaxWireString || l > uint64(d.Remaining()) {
		d.fail("string length %d exceeds remaining %d bytes", l, d.Remaining())
		return ""
	}
	s := string(d.b[d.off : d.off+int(l)])
	d.off += int(l)
	return s
}

// Byte consumes one raw byte (frame-type tags inside a payload).
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// Raw consumes n bytes and returns them as a sub-slice of the input
// (not a copy); callers decoding nested frames use it to scope a
// fresh Dec to one sub-payload.
func (d *Dec) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("raw read of %d bytes exceeds remaining %d", n, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Count consumes a collection count and validates it against max and
// against the remaining input (each element costs at least one byte),
// so a forged count can never cause an outsized allocation.
func (d *Dec) Count(max int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.Remaining()) {
		d.fail("count %d exceeds limit %d / remaining %d bytes", n, max, d.Remaining())
		return 0
	}
	return int(n)
}

// ---- framing ----

// AppendWireHeader appends the protocol envelope header (magic +
// version).
func AppendWireHeader(dst []byte) []byte {
	return append(dst, WireMagic0, WireMagic1, WireVersion)
}

// AppendFrame appends one frame: type, payload length, payload.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// PutFrameHeader writes a frame header (type + payload length) for a
// payload of n bytes into dst and returns the number of bytes written.
// dst must hold at least MaxFrameHeader bytes. Serving code uses it to
// write header and payload separately, so the payload buffer is never
// copied.
func PutFrameHeader(dst []byte, t FrameType, n int) int {
	dst[0] = byte(t)
	return 1 + binary.PutUvarint(dst[1:], uint64(n))
}

// MaxFrameHeader is the worst-case encoded size of envelope header
// plus frame header.
const MaxFrameHeader = 3 + 1 + binary.MaxVarintLen64

// PutWireHeader writes the envelope header into dst (which must hold
// at least 3 bytes) and returns 3.
func PutWireHeader(dst []byte) int {
	dst[0], dst[1], dst[2] = WireMagic0, WireMagic1, WireVersion
	return 3
}

// DecodeWireHeader validates the envelope header and returns the
// remaining bytes.
func DecodeWireHeader(b []byte) ([]byte, error) {
	if len(b) < 3 {
		return nil, wireErr("envelope shorter than %d bytes", 3)
	}
	if b[0] != WireMagic0 || b[1] != WireMagic1 {
		return nil, wireErr("bad magic %q", b[:2])
	}
	if b[2] != WireVersion {
		return nil, wireErr("unsupported wire version %d (want %d)", b[2], WireVersion)
	}
	return b[3:], nil
}

// DecodeFrame splits one frame off b, returning its type, payload and
// the rest. The declared payload length is validated against the
// remaining input before use.
func DecodeFrame(b []byte) (t FrameType, payload, rest []byte, err error) {
	if len(b) < 1 {
		return 0, nil, nil, wireErr("empty frame")
	}
	t = FrameType(b[0])
	l, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return 0, nil, nil, wireErr("truncated frame length")
	}
	body := b[1+n:]
	if l > MaxFramePayload || l > uint64(len(body)) {
		return 0, nil, nil, wireErr("frame payload length %d exceeds remaining %d bytes", l, len(body))
	}
	return t, body[:l], body[l:], nil
}

// DecodeEnvelope validates the envelope header and splits off its
// frame, returning the frame type, its payload, and any trailing bytes
// after the frame.
func DecodeEnvelope(b []byte) (t FrameType, payload, rest []byte, err error) {
	body, err := DecodeWireHeader(b)
	if err != nil {
		return 0, nil, nil, err
	}
	return DecodeFrame(body)
}
