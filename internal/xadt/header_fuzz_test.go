package xadt

import (
	"bytes"
	"testing"

	"repro/internal/xmltree"
)

// FuzzHeaderDecode hammers the 0xF8 fragment-header decoder with
// truncated and corrupt inputs. Decoding must never panic, corrupt
// headers must fall back to the legacy (headerless) interpretation
// without altering the payload, and every XADT method must degrade to an
// error — never a crash — on garbage bytes.
func FuzzHeaderDecode(f *testing.F) {
	frag := []*xmltree.Node{
		xmltree.NewElement("LINE").AppendText("rising and falling"),
		xmltree.NewElement("STAGEDIR").AppendText("Exit, pursued by a bear"),
	}
	frag[0].Append(xmltree.NewElement("EMPH").AppendText("rising"))
	for _, format := range []Format{Raw, Compressed} {
		stored := EncodeStored(frag, format)
		f.Add(stored.Bytes())
		f.Add(Encode(frag, format).Bytes())
		// Truncations of a valid headered value hit every partial-read
		// branch of parseHeader.
		for _, n := range []int{1, 2, 3, 5, 8} {
			if n < stored.Len() {
				f.Add(stored.Bytes()[:n])
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
		h, ok := v.Header()
		if ok {
			h.MayContain("LINE")
			h.MayContain("")
		}
		payload := v.payloadBytes()
		if !ok && !bytes.Equal(payload, data) {
			t.Fatalf("legacy fallback altered a headerless value: %q -> %q", data, payload)
		}
		v.Format()
		v.IsEmpty()
		v.Text()
		if nodes, err := v.Nodes(); err == nil {
			EncodeStored(nodes, v.Format())
		}
		FindKeyInElm(v, "LINE", "rising")
		GetElm(v, "", "LINE", "", -1)
		GetElmIndex(v, "", "LINE", 1, 2)
		Unnest(v, "LINE")
	})
}
