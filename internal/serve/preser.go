package serve

import (
	"bytes"
	"encoding/json"
	"sync"

	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
)

// Per-snapshot pre-serialized responses: the answers that depend only
// on the immutable snapshot are rendered to their final wire bytes at
// most once per generation, and every later request writes those bytes
// straight to the socket, in either protocol, with no per-request
// marshaling. The summary and the text tree are rendered at publish;
// elements and the JSON export (19.5 MB on XScluster, read only by
// /json) are rendered on first access.

// Binary-protocol metrics in the process-wide registry.
var (
	mProtoJSON = obs.Default().CounterWith("xpdl_serve_proto_total",
		"API responses served, by wire protocol.", "proto", "json")
	mProtoBin = obs.Default().CounterWith("xpdl_serve_proto_total",
		"API responses served, by wire protocol.", "proto", "bin")
	mPreserHits = obs.Default().Counter("xpdl_serve_preser_hits_total",
		"API responses served from per-snapshot pre-serialized bytes.")
	mPreserReused = obs.Default().Counter("xpdl_serve_preser_reused_total",
		"Pre-serialized answers carried over unchanged across a delta patch.")
)

// preEncoded is one response rendered to final bytes in both
// protocols: body is the classic answer (indented JSON), bin is a
// complete binary envelope.
type preEncoded struct {
	body []byte
	bin  []byte
}

// preResponses is the pre-serialized set of one snapshot. summary and
// tree are built before the snapshot is published and read-only
// afterwards. The tree is one body for both protocols: binary clients
// get it behind a raw frame header. export and elems fill lazily and
// are safe for concurrent readers because the snapshot is immutable —
// their bytes can never go stale within one generation.
type preResponses struct {
	summary    preEncoded
	tree       []byte
	exportOnce sync.Once
	export     []byte
	elems      sync.Map // ident → *preEncoded
}

// prepare readies a snapshot for publishing: selector indexes plus the
// summary and tree answers. The store calls it before the pointer swap,
// so no request — not even the first after a hot swap — pays an index
// build or a summary/tree render.
func prepare(snap *Snapshot) {
	snap.Session.BuildIndexes()
	if snap.pre != nil {
		return
	}
	snap.pre = &preResponses{summary: preSummary(snap), tree: treeOf(snap)}
}

// preparePatched readies a delta-patched snapshot, reusing everything
// from its predecessor that provably cannot have changed: the selector
// indexes (the patch edits attribute values only, never structure), the
// rendered tree (attribute-free by construction), and every lazily
// rendered element answer whose node content is unchanged. The summary
// is rebuilt; the JSON export is never carried over, so /json renders
// the patched attributes on its first request. If the structural
// invariants do not hold it degrades to prepare().
func preparePatched(snap, old *Snapshot) {
	if !snap.Session.AdoptIndexes(old.Session) {
		prepare(snap)
		return
	}
	p := &preResponses{summary: preSummary(snap)}
	if sameTreeShape(snap, old) {
		p.tree = old.pre.tree
		mPreserReused.Inc()
	} else {
		p.tree = treeOf(snap)
	}
	nm, om := snap.Session.Model(), old.Session.Model()
	old.pre.elems.Range(func(k, v any) bool {
		on, ok := om.Lookup(k.(string))
		if !ok {
			return true
		}
		// The element answer renders node content only; the shape was
		// verified at adoption.
		nn, ok := nm.Lookup(k.(string))
		if ok && rtmodel.NodeContentEqual(nn, on) {
			p.elems.Store(k, v)
			mPreserReused.Inc()
		}
		return true
	})
	snap.pre = p
}

// preSummary renders the summary answer in both protocols.
func preSummary(snap *Snapshot) preEncoded {
	sum := summaryOf(snap)
	return preEncoded{body: marshalIndented(sum), bin: encodeBin(&sum)}
}

// treeOf renders the snapshot's text tree into a buffer sized to the
// exact rendered length, so the render allocates its bytes once.
func treeOf(snap *Snapshot) []byte {
	root := snap.Session.Root()
	b := bytes.NewBuffer(make([]byte, 0, treeSize(root, 0)))
	_ = WriteTree(b, root)
	return b.Bytes()
}

// treeSize returns the length of WriteTree's rendering of the subtree
// at e, drawn at the given depth. It follows WriteTree's line layout;
// TestTreeOfSized checks that the two agree.
func treeSize(e query.Elem, depth int) int {
	if !e.Valid() {
		return 0
	}
	n := 2*depth + len(e.Kind()) + 1
	if id := e.Ident(); id != "" {
		n += 1 + len(id)
	}
	if t := e.TypeName(); t != "" {
		n += 3 + len(t)
	}
	for i := range e.NumChildren() {
		n += treeSize(e.Child(i), depth+1)
	}
	return n
}

// exportJSON returns the snapshot's JSON export, rendering it on the
// first call of this generation.
func (s *Snapshot) exportJSON() []byte {
	p := s.pre
	p.exportOnce.Do(func() {
		var b bytes.Buffer
		_ = s.Session.Model().WriteJSON(&b)
		p.export = b.Bytes()
	})
	return p.export
}

// sameTreeShape reports whether the rendered tree (kind/ident/type per
// node) is identical between two same-length snapshots. AdoptIndexes
// already verified kind/name/id/parent; only type tags remain.
func sameTreeShape(snap, old *Snapshot) bool {
	a, b := snap.Session.Model(), old.Session.Model()
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].Type != b.Nodes[i].Type {
			return false
		}
	}
	return true
}

// summaryOf returns the derived-analysis roll-up of one snapshot from
// its session's rollups.
func summaryOf(snap *Snapshot) SummaryResponse {
	t := snap.Session.Totals()
	installed := snap.Session.InstalledList()
	if installed == nil {
		installed = []string{}
	}
	return SummaryResponse{
		Cores:        t.Cores,
		CUDADevices:  t.CUDADevices,
		StaticPowerW: t.StaticPower,
		Installed:    installed,
	}
}

// preElement returns the pre-serialized lookup answer for one element,
// rendering and caching it on first use. ok is false when the element
// does not exist.
func (s *Snapshot) preElement(ident string) (*preEncoded, bool) {
	p := s.pre
	if v, ok := p.elems.Load(ident); ok {
		return v.(*preEncoded), true
	}
	e, ok := s.Session.Find(ident)
	if !ok {
		return nil, false
	}
	el := elementOf(e)
	pe := &preEncoded{body: marshalIndented(el), bin: encodeBin(&el)}
	actual, _ := p.elems.LoadOrStore(ident, pe)
	return actual.(*preEncoded), true
}

// encodeIndented renders v as every JSON answer goes out: two-space
// indent and the trailing newline of json.Encoder. This rendering is
// the byte-level contract existing clients depend on.
func encodeIndented(buf *bytes.Buffer, v any) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// marshalIndented renders v with encodeIndented, so pre-serialized
// JSON answers are byte-identical to live ones.
func marshalIndented(v any) []byte {
	var buf bytes.Buffer
	encodeIndented(&buf, v)
	return buf.Bytes()
}

// encodeBin renders a complete binary envelope for one message.
func encodeBin(m binaryMessage) []byte {
	e := getEnc()
	defer putEnc(e)
	m.wire(codec{e: e})
	out := make([]byte, 0, rtmodel.MaxFrameHeader+len(e.Buf))
	out = rtmodel.AppendWireHeader(out)
	return rtmodel.AppendFrame(out, m.frame(), e.Buf)
}
