package xadt

import "repro/internal/xmltree"

// Values written by earlier versions of the loader carry a v1 fragment
// header in front of the payload: a Bloom filter over the fragment's
// element names and its depth, once used to skip fragments without
// scanning them. The byte scanner made that skip worth less than the
// bytes it cost, so values are now stored without it, but decoding still
// skips a header so that checkpoints holding headered values stay
// readable.
//
// Layout of a headered value:
//
//	[0xF8][version=1][uvarint hlen][header body][payload]
//	header body: [uvarint depth][uvarint nfilter][filter bytes]
//
// The payload is a complete value (format byte + body). 0xF8 cannot
// collide with a headerless value, whose first byte is always a Format
// (0, 1 or 2).

// headerMarker introduces a headered value.
const headerMarker byte = 0xF8

// EncodeStored is Encode. The benchmark's XADT probe still calls it by
// this name.
func EncodeStored(nodes []*xmltree.Node, f Format) Value { return Encode(nodes, f) }

// payloadOffset returns where the payload starts: past a well-formed v1
// header, 0 otherwise. Corrupt headers yield 0 so the payload decoder
// surfaces the error.
func payloadOffset(data []byte) int {
	if len(data) < 2 || data[0] != headerMarker {
		return 0
	}
	r := &byteReader{b: data, pos: 2} // skip marker + version
	hlen, err := r.uvarint()
	// Compare lengths as uint64 before converting: a corrupt varint can
	// exceed math.MaxInt and flip negative under int().
	if err != nil || hlen > uint64(len(data)) || r.pos+int(hlen) > len(data) {
		return 0
	}
	off := r.pos + int(hlen)
	body := &byteReader{b: data[:off], pos: r.pos}
	depth, err := body.uvarint()
	if err != nil || depth > uint64(len(data)) {
		return 0
	}
	nfilter, err := body.uvarint()
	if err != nil || nfilter > uint64(off) || body.pos+int(nfilter) > off {
		return 0
	}
	return off
}

// payloadBytes returns the value without any v1 header.
func (v Value) payloadBytes() []byte {
	return v.data[payloadOffset(v.data):]
}
