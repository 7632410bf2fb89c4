package xadt

import (
	"encoding/binary"

	"repro/internal/xmltree"
)

// The fragment header is the metadata extension the paper proposes in
// §4.4/§5 ("storing of metadata with the XADT attribute to improve the
// performance of the methods on the XADT"), applied to method fast
// rejection: a small self-describing block in front of the stored value
// carrying a Bloom filter over the fragment's element names and the
// fragment's element depth. GetElm, FindKeyInElm, GetElmIndex and Unnest
// consult the filter to reject fragments that cannot contain the element
// they search for in O(header) time, without scanning the payload.
//
// Layout (in front of any legacy-format payload):
//
//	[0xF8][version=1][uvarint hlen][header body][payload]
//	header body: [uvarint depth][uvarint nfilter][filter bytes]
//
// The payload is a complete legacy value (format byte + body), so every
// decode path works on the payload unchanged and a headerless seed-era
// value is simply one with no header in front. hlen is the body length in
// bytes: readers that know the marker but not the version skip the body
// wholesale, so future header extensions stay readable. 0xF8 cannot
// collide with a legacy value, whose first byte is always a Format
// (0, 1 or 2).

const (
	// headerMarker introduces a headered value.
	headerMarker byte = 0xF8
	// headerVersion is the current header layout version.
	headerVersion byte = 1
)

// Filter sizing: 8 bits per distinct element name gives ~5% false
// positives with two probes; sizes are clamped so tiny fragments pay a
// fixed 8 bytes and pathological ones never exceed 64.
const (
	minFilterBytes = 8
	maxFilterBytes = 64
)

// Header is the decoded fragment header.
type Header struct {
	// Depth is the maximum element nesting depth of the fragment (a lone
	// element is depth 1; an empty fragment is 0).
	Depth int
	// filter is the Bloom filter over the fragment's element names.
	filter []byte
}

// MayContain reports whether the fragment may contain an element with
// the given name. False is definitive: the element is absent. True means
// the element is present or a false positive (~5%).
func (h *Header) MayContain(name string) bool {
	if len(h.filter) == 0 {
		return false // empty fragment: no elements at all
	}
	h1, h2 := filterHashes(name)
	bits := uint32(len(h.filter)) * 8
	return h.testBit(h1%bits) && h.testBit(h2%bits)
}

func (h *Header) testBit(i uint32) bool {
	return h.filter[i/8]&(1<<(i%8)) != 0
}

func setBit(filter []byte, i uint32) {
	filter[i/8] |= 1 << (i % 8)
}

// filterHashes derives the two Bloom probes from one 64-bit FNV-1a hash,
// computed inline so a probe allocates nothing.
func filterHashes(name string) (uint32, uint32) {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return uint32(h), uint32(h >> 32)
}

// buildHeader assembles the header bytes for a fragment's nodes.
func buildHeader(nodes []*xmltree.Node) []byte {
	names := map[string]struct{}{}
	depth := 0
	var walk func(n *xmltree.Node, d int)
	walk = func(n *xmltree.Node, d int) {
		if !n.IsElement() {
			return
		}
		names[n.Name] = struct{}{}
		if d > depth {
			depth = d
		}
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	for _, n := range nodes {
		walk(n, 1)
	}

	var filter []byte
	if len(names) > 0 {
		nbytes := minFilterBytes
		for nbytes < len(names) && nbytes < maxFilterBytes {
			nbytes *= 2
		}
		filter = make([]byte, nbytes)
		bits := uint32(nbytes) * 8
		for name := range names {
			h1, h2 := filterHashes(name)
			setBit(filter, h1%bits)
			setBit(filter, h2%bits)
		}
	}

	body := binary.AppendUvarint(nil, uint64(depth))
	body = binary.AppendUvarint(body, uint64(len(filter)))
	body = append(body, filter...)

	out := []byte{headerMarker, headerVersion}
	out = binary.AppendUvarint(out, uint64(len(body)))
	return append(out, body...)
}

// EncodeStored builds a Value in the given format with a fragment header
// in front — the representation the loader writes. Method outputs use
// plain Encode so composed results stay byte-identical to seed-era ones.
func EncodeStored(nodes []*xmltree.Node, f Format) Value {
	payload := Encode(nodes, f)
	hdr := buildHeader(nodes)
	data := make([]byte, 0, len(hdr)+len(payload.data))
	data = append(data, hdr...)
	data = append(data, payload.data...)
	return Value{data: data}
}

// Header returns the decoded fragment header, or ok=false for legacy
// (headerless) or corrupt values.
func (v Value) Header() (Header, bool) {
	h, _, ok := parseHeader(v.data)
	return h, ok
}

// payloadOffset returns where the legacy payload starts: 0 for
// headerless values, past the header otherwise. Corrupt headers yield 0
// so the payload decoder surfaces the error.
func payloadOffset(data []byte) int {
	_, off, ok := parseHeader(data)
	if !ok {
		return 0
	}
	return off
}

// payloadBytes returns the legacy-format payload of the value.
func (v Value) payloadBytes() []byte {
	return v.data[payloadOffset(v.data):]
}

// parseHeader decodes a header, returning it with the payload offset.
// ok is false when data is headerless or the header is malformed.
func parseHeader(data []byte) (Header, int, bool) {
	if len(data) < 2 || data[0] != headerMarker {
		return Header{}, 0, false
	}
	r := &byteReader{b: data, pos: 2} // skip marker + version
	hlen, err := r.uvarint()
	// Compare lengths as uint64 before converting: a corrupt varint can
	// exceed math.MaxInt and flip negative under int().
	if err != nil || hlen > uint64(len(data)) || r.pos+int(hlen) > len(data) {
		return Header{}, 0, false
	}
	off := r.pos + int(hlen)
	body := &byteReader{b: data[:off], pos: r.pos}
	depth, err := body.uvarint()
	if err != nil || depth > uint64(len(data)) {
		return Header{}, 0, false
	}
	nfilter, err := body.uvarint()
	if err != nil || nfilter > uint64(off) || body.pos+int(nfilter) > off {
		return Header{}, 0, false
	}
	filter := data[body.pos : body.pos+int(nfilter)]
	return Header{Depth: int(depth), filter: filter}, off, true
}
