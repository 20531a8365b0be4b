package serve

import (
	"fmt"
	"sort"
	"time"

	"xpdl/internal/rtmodel"
)

// Binary protocol layer: frame-type assignments and one wire layout
// per wire struct in api.go. A binary response is one rtmodel wire
// envelope (magic + version + frame) whose payload is the
// frame-type-specific encoding below. The binary form is an exact
// re-encoding of the JSON answer: the differential parity suite
// asserts that decoding a binary response yields a struct deeply equal
// to the JSON answer for the same request, field for field. Each
// message's wire method walks its fields in wire order through a codec
// (below), which both encodes and decodes.
const (
	frameError rtmodel.FrameType = iota
	frameSummary
	frameSelect
	frameEval
	frameElement
	frameEnergy
	frameTransfer
	frameDispatch
	frameBatch
	frameModels
	frameModelInfo
	frameHealth
	frameRefresh
	// Raw frames wrap a byte-stream answer (text tree, JSON export)
	// unchanged, so sink-style endpoints ride the same envelope.
	frameRawTree
	frameRawJSON
	frameStats
)

// ContentTypeBinary is the negotiated media type of the binary query
// protocol. Clients opt in with "Accept: application/x-xpdl-bin";
// responses carry it as Content-Type.
const ContentTypeBinary = "application/x-xpdl-bin"

// binaryMessage is implemented by every wire struct that travels as a
// binary frame: wire codes the struct's fields in wire order. An
// answer without it (the sweep submission, the job list, job status
// and job cancel, and the watch long poll) answers JSON even to a
// binary Accept.
type binaryMessage interface {
	frame() rtmodel.FrameType
	wire(c codec)
}

// ---- the codec ----

// codec walks one message's fields in wire order. It encodes when e is
// set and decodes when d is set, so each message's layout is written
// once, in its wire method, for both directions. A codec is a small
// value: passing it by value keeps a message's wire call free of
// allocations.
//
// Encoding conventions (every field helper below applies them, so the
// binary answer decodes to the JSON answer field for field):
//
//   - One helper per Go field type: int and uint64 travel as uvarints,
//     int64 as a zig-zag varint, float64 as 8 little-endian bytes, bool
//     as one byte, string as an interned string (rtmodel.Enc.String).
//   - time.Time travels as its RFC3339Nano rendering, the exact string
//     encoding/json marshals; a string time.Parse rejects fails the
//     decode with an error wrapping rtmodel.ErrWire.
//   - A *float64 travels as a presence bool, then the value if present.
//   - A list or map travels as a count, then its elements; maps go out
//     with sorted keys, so the encoding is deterministic and
//     pre-serialized bytes are stable for a given answer. Each list and
//     map field states how an empty value decodes (type empty): to nil
//     behind a JSON field with omitempty, matching an answer that omits
//     the key, or to a non-nil empty value otherwise, matching "[]".
//   - Decoders ignore trailing payload bytes: a newer server may append
//     fields, and an older client still reads its prefix.
type codec struct {
	e *rtmodel.Enc
	d *rtmodel.Dec
}

// decodeWire decodes one frame payload into m and returns the first
// decoding error, which wraps rtmodel.ErrWire.
func decodeWire(m binaryMessage, payload []byte) error {
	d := rtmodel.NewDec(payload)
	m.wire(codec{d: d})
	return d.Err()
}

// failed reports whether decoding has hit an error; later reads return
// zero values, so list and map loops stop early.
func (c codec) failed() bool { return c.d != nil && c.d.Err() != nil }

// fail records a decoding error wrapping rtmodel.ErrWire.
func (c codec) fail(format string, args ...any) {
	c.d.Fail(fmt.Errorf("%w: %s", rtmodel.ErrWire, fmt.Sprintf(format, args...)))
}

func (c codec) string(v *string) {
	if c.e != nil {
		c.e.String(*v)
	} else {
		*v = c.d.String()
	}
}

func (c codec) int(v *int) {
	if c.e != nil {
		c.e.Uvarint(uint64(*v))
	} else {
		*v = int(c.d.Uvarint())
	}
}

func (c codec) uint64(v *uint64) {
	if c.e != nil {
		c.e.Uvarint(*v)
	} else {
		*v = c.d.Uvarint()
	}
}

func (c codec) int64(v *int64) {
	if c.e != nil {
		c.e.Varint(*v)
	} else {
		*v = c.d.Varint()
	}
}

func (c codec) float64(v *float64) {
	if c.e != nil {
		c.e.F64(*v)
	} else {
		*v = c.d.F64()
	}
}

func (c codec) bool(v *bool) {
	if c.e != nil {
		c.e.Bool(*v)
	} else {
		*v = c.d.Bool()
	}
}

func (c codec) time(v *time.Time) {
	if c.e != nil {
		c.e.String(v.Format(time.RFC3339Nano))
		return
	}
	s := c.d.String()
	if c.failed() {
		return
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		c.fail("time %q: %v", s, err)
		return
	}
	*v = t
}

func (c codec) optFloat64(v **float64) {
	present := *v != nil
	c.bool(&present)
	if !present {
		*v = nil
		return
	}
	if c.d != nil {
		*v = new(float64)
	}
	c.float64(*v)
}

// empty states how an empty list or map field decodes.
type empty bool

const (
	omitEmpty empty = true  // to nil: the JSON field has omitempty
	keepEmpty empty = false // to a non-nil empty value: JSON "[]"
)

// maxPrealloc bounds the elements a decoded list or map reserves from
// its declared count. The count is checked only against the bytes left
// in the payload, and one payload byte must not reserve a whole
// element's memory (a stats row is 224 bytes): past the bound the value
// grows by append as its elements decode, so a forged count costs no
// more than the elements actually sent.
const maxPrealloc = 64

// slice codes a slice field: its length, then each element through elem.
func slice[T any](c codec, v *[]T, ifEmpty empty, elem func(codec, *T)) {
	if c.e != nil {
		c.e.Uvarint(uint64(len(*v)))
		for i := range *v {
			elem(c, &(*v)[i])
		}
		return
	}
	n := c.d.Count(rtmodel.MaxWireCount)
	if n == 0 && ifEmpty == omitEmpty {
		*v = nil
		return
	}
	*v = make([]T, 0, min(n, maxPrealloc))
	var zero T
	for range n {
		*v = append(*v, zero)
		if elem(c, &(*v)[len(*v)-1]); c.failed() {
			return
		}
	}
}

// sortedMap codes a string-keyed map field: its size, then each key
// and its value through val, keys in sorted order. val takes and
// returns the value rather than a pointer to it, so that no value
// escapes to the heap through the function call.
func sortedMap[V any](c codec, v *map[string]V, ifEmpty empty, val func(codec, V) V) {
	if c.e != nil {
		keys := make([]string, 0, len(*v))
		for k := range *v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c.e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			c.e.String(k)
			val(c, (*v)[k])
		}
		return
	}
	n := c.d.Count(rtmodel.MaxWireCount)
	if n == 0 && ifEmpty == omitEmpty {
		*v = nil
		return
	}
	*v = make(map[string]V, min(n, maxPrealloc))
	var zero V
	for i := 0; i < n; i++ {
		k := c.d.String()
		x := val(c, zero)
		if c.failed() {
			return
		}
		(*v)[k] = x
	}
}

// subFrame codes a nested frame: its type, its payload length and the
// payload, which body codes with an intern table of its own. On decode
// *t is read before body runs.
func (c codec) subFrame(t *rtmodel.FrameType, body func(codec)) {
	if c.e != nil {
		sub := getEnc()
		body(codec{e: sub})
		c.e.Buf = rtmodel.AppendFrame(c.e.Buf, *t, sub.Buf)
		putEnc(sub)
		return
	}
	*t = rtmodel.FrameType(c.d.Byte())
	l := c.d.Uvarint()
	if l > rtmodel.MaxFramePayload {
		c.fail("sub-frame length %d", l)
	}
	payload := c.d.Raw(int(l))
	if c.failed() {
		return
	}
	sub := rtmodel.NewDec(payload)
	body(codec{d: sub})
	if err := sub.Err(); err != nil {
		c.d.Fail(err)
	}
}

// ---- per-message layouts ----

func (m *ErrorResponse) frame() rtmodel.FrameType { return frameError }

func (m *ErrorResponse) wire(c codec) {
	c.string(&m.Error)
}

func (m *SummaryResponse) frame() rtmodel.FrameType { return frameSummary }

func (m *SummaryResponse) wire(c codec) {
	c.int(&m.Cores)
	c.int(&m.CUDADevices)
	c.float64(&m.StaticPowerW)
	slice(c, &m.Installed, keepEmpty, codec.string)
}

func (c codec) ref(r *ElementRef) {
	c.string(&r.Kind)
	c.string(&r.Ident)
	c.string(&r.Path)
}

func (m *SelectResponse) frame() rtmodel.FrameType { return frameSelect }

func (m *SelectResponse) wire(c codec) {
	c.int(&m.Count)
	slice(c, &m.Elements, keepEmpty, codec.ref)
}

func (m *EvalResponse) frame() rtmodel.FrameType { return frameEval }

func (m *EvalResponse) wire(c codec) {
	c.string(&m.Kind)
	c.float64(&m.Num)
	c.bool(&m.Bool)
	c.string(&m.Str)
	c.string(&m.Text)
}

func (c codec) attr(a AttrJSON) AttrJSON {
	c.string(&a.Raw)
	c.optFloat64(&a.Value)
	c.string(&a.Unit)
	c.string(&a.Display)
	c.bool(&a.Unknown)
	return a
}

func (m *ElementJSON) frame() rtmodel.FrameType { return frameElement }

func (m *ElementJSON) wire(c codec) {
	c.string(&m.Kind)
	c.string(&m.ID)
	c.string(&m.Name)
	c.string(&m.Type)
	c.string(&m.Path)
	sortedMap(c, &m.Attrs, omitEmpty, codec.attr)
	slice(c, &m.Children, omitEmpty, codec.ref)
}

func (m *EnergyResponse) frame() rtmodel.FrameType { return frameEnergy }

func (m *EnergyResponse) wire(c codec) {
	c.string(&m.Table)
	slice(c, &m.Instructions, omitEmpty, codec.string)
	slice(c, &m.Unknowns, omitEmpty, codec.string)
	c.string(&m.Inst)
	c.float64(&m.GHz)
	c.optFloat64(&m.EnergyJ)
}

func (m *TransferResponse) frame() rtmodel.FrameType { return frameTransfer }

func (m *TransferResponse) wire(c codec) {
	c.string(&m.Channel)
	c.float64(&m.BandwidthBps)
	c.int64(&m.Bytes)
	c.int64(&m.Messages)
	c.float64(&m.TimeS)
	c.float64(&m.EnergyJ)
}

func (m *DispatchResponse) frame() rtmodel.FrameType { return frameDispatch }

func (m *DispatchResponse) wire(c codec) {
	slice(c, &m.Selectable, keepEmpty, codec.string)
	c.string(&m.Chosen)
	sortedMap(c, &m.Costs, omitEmpty, func(c codec, f float64) float64 { c.float64(&f); return f })
	c.string(&m.Warning)
}

func (m *BatchResponse) frame() rtmodel.FrameType { return frameBatch }

func (m *BatchResponse) wire(c codec) {
	slice(c, &m.Results, keepEmpty, codec.batchResult)
}

// batchResult codes one result as a sub-frame holding an error, select
// or eval message, so a batch decoder can skip result kinds it does not
// know. A result with none of the three goes out as an empty error.
func (c codec) batchResult(r *BatchResult) {
	t := frameError
	switch {
	case r.Error != "":
	case r.Select != nil:
		t = frameSelect
	case r.Eval != nil:
		t = frameEval
	}
	c.subFrame(&t, func(c codec) {
		switch t {
		case frameError:
			er := ErrorResponse{Error: r.Error}
			er.wire(c)
			r.Error = er.Error
		case frameSelect:
			if r.Select == nil {
				r.Select = new(SelectResponse)
			}
			r.Select.wire(c)
		case frameEval:
			if r.Eval == nil {
				r.Eval = new(EvalResponse)
			}
			r.Eval.wire(c)
		default:
			c.fail("unknown batch sub-frame type %d", t)
		}
	})
}

func (m *ModelInfo) frame() rtmodel.FrameType { return frameModelInfo }

func (m *ModelInfo) wire(c codec) {
	c.string(&m.Ident)
	c.uint64(&m.Generation)
	c.string(&m.Fingerprint)
	c.time(&m.LoadedAt)
	c.int(&m.Nodes)
}

func (m *ModelsResponse) frame() rtmodel.FrameType { return frameModels }

func (m *ModelsResponse) wire(c codec) {
	slice(c, &m.Models, keepEmpty, func(c codec, mi *ModelInfo) { mi.wire(c) })
}

func (m *HealthResponse) frame() rtmodel.FrameType { return frameHealth }

func (m *HealthResponse) wire(c codec) {
	c.string(&m.Status)
	slice(c, &m.Resident, keepEmpty, codec.string)
	c.uint64(&m.Generation)
}

func (c codec) statRow(r *QueryStatRow) {
	c.string(&r.Endpoint)
	c.string(&r.Model)
	c.string(&r.Shape)
	c.string(&r.Proto)
	c.int64(&r.Calls)
	c.int64(&r.Errors)
	c.int64(&r.Rows)
	c.int64(&r.ReqBytes)
	c.int64(&r.RespBytes)
	c.float64(&r.LatencySumS)
	c.float64(&r.P50S)
	c.float64(&r.P99S)
	slice(c, &r.BucketCounts, keepEmpty, codec.int64)
	c.int64(&r.AllocSamples)
	c.int64(&r.AllocObjects)
	c.int64(&r.LastGen)
	c.time(&r.FirstSeen)
	c.time(&r.LastSeen)
}

func (c codec) slowQuery(s *SlowQueryJSON) {
	c.float64(&s.LatencyMS)
	c.string(&s.Endpoint)
	c.string(&s.Model)
	c.string(&s.Shape)
	c.string(&s.Proto)
	c.string(&s.TraceID)
	c.bool(&s.Error)
	c.time(&s.At)
}

func (m *QueryStatsResponse) frame() rtmodel.FrameType { return frameStats }

func (m *QueryStatsResponse) wire(c codec) {
	slice(c, &m.BucketBounds, keepEmpty, codec.float64)
	c.int(&m.Digests)
	c.int64(&m.Recorded)
	c.int64(&m.Evicted)
	slice(c, &m.Rows, keepEmpty, codec.statRow)
	slice(c, &m.Slow, keepEmpty, codec.slowQuery)
}

func (m *RefreshResponse) frame() rtmodel.FrameType { return frameRefresh }

func (m *RefreshResponse) wire(c codec) {
	c.string(&m.Ident)
	c.bool(&m.Swapped)
	c.uint64(&m.Generation)
	c.bool(&m.Delta)
}
