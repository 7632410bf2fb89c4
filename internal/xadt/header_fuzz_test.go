package xadt

import (
	"bytes"
	"testing"

	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// FuzzHeaderDecode hammers the v1 fragment-header decoder with truncated
// and corrupt inputs. Decoding must never panic, corrupt headers must
// fall back to the headerless interpretation without altering the
// payload, and every XADT method must degrade to an error — never a
// crash — on garbage bytes.
func FuzzHeaderDecode(f *testing.F) {
	frag := []*xmltree.Node{
		xmltree.NewElement("LINE").AppendText("rising and falling"),
		xmltree.NewElement("STAGEDIR").AppendText("Exit, pursued by a bear"),
	}
	frag[0].Append(xmltree.NewElement("EMPH").AppendText("rising"))
	for _, format := range []Format{Raw, Compressed} {
		plain := Encode(frag, format).Bytes()
		stored := testutil.WithV1Header(plain)
		f.Add(stored)
		f.Add(plain)
		// Truncations of a valid headered value hit every partial-read
		// branch of payloadOffset.
		for _, n := range []int{1, 2, 3, 5, 8} {
			if n < len(stored) {
				f.Add(stored[:n])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xF8})
	f.Add([]byte{0xF8, 0x01})
	f.Add([]byte{0xF8, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(append([]byte{0xF8, 0x01, 0x40}, make([]byte, 16)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := FromBytes(data)
		off := payloadOffset(data)
		if off < 0 || off > len(data) || off > 0 && data[0] != headerMarker {
			t.Fatalf("payload offset %d of %q", off, data)
		}
		if payload := v.payloadBytes(); off == 0 && !bytes.Equal(payload, data) {
			t.Fatalf("headerless fallback altered a value: %q -> %q", data, payload)
		}
		v.Format()
		v.IsEmpty()
		v.Text()
		if nodes, err := v.Nodes(); err == nil {
			Encode(nodes, v.Format())
		}
		FindKeyInElm(v, "LINE", "rising")
		GetElm(v, "", "LINE", "", -1)
		GetElmIndex(v, "", "LINE", 1, 2)
		Unnest(v, "LINE")
	})
}
