package storage

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine/types"
)

// serializedHeap returns a serialized heap holding inline, overflow and
// deleted records.
func serializedHeap(t testing.TB) []byte {
	h := NewHeapFile(nil)
	var rids []RID
	for i := 0; i < 40; i++ {
		rids = append(rids, h.Insert([]types.Value{types.NewInt(int64(i)), types.NewString(strings.Repeat("s", i*10))}))
	}
	big := types.NewXADT([]byte(strings.Repeat("<LINE>overflow</LINE>", MaxInlineRecord/20+1)))
	rids = append(rids, h.Insert([]types.Value{types.NewInt(99), big}))
	h.Insert([]types.Value{types.NewInt(100), big})
	for _, i := range []int{3, 17, 40} {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := h.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeserializeRejectsHostilePages checks that page images which would
// index outside the page, and blob lengths larger than the input, fail
// with an error naming the page or blob instead of panicking or
// allocating the claimed size.
func TestDeserializeRejectsHostilePages(t *testing.T) {
	good := serializedHeap(t)
	if _, err := DeserializeHeapFile(bytes.NewReader(good), nil); err != nil {
		t.Fatalf("serialized heap rejected: %v", err)
	}
	// good[0] is the page count; page 0's image follows it.
	page0 := func(edit func(img []byte)) []byte {
		b := bytes.Clone(good)
		edit(b[1 : 1+PageSize])
		return b
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"slot count", "page 0: slot count 65535",
			page0(func(img []byte) { binary.LittleEndian.PutUint16(img[0:], 0xFFFF) })},
		{"free start before header", "page 0: free-space start 2",
			page0(func(img []byte) { binary.LittleEndian.PutUint16(img[2:], 2) })},
		{"free start in directory", "page 0: free-space start 8190",
			page0(func(img []byte) { binary.LittleEndian.PutUint16(img[2:], PageSize-2) })},
		{"slot past the page", "page 0: slot 0 at [8000, 13000)",
			page0(func(img []byte) {
				binary.LittleEndian.PutUint16(img[PageSize-4:], 8000)
				binary.LittleEndian.PutUint16(img[PageSize-2:], 5000)
			})},
		{"slot in the header", "page 0: slot 0 at [0, 10)",
			page0(func(img []byte) {
				binary.LittleEndian.PutUint16(img[PageSize-4:], 0)
				binary.LittleEndian.PutUint16(img[PageSize-2:], 10)
			})},
		{"blob longer than input", "overflow blob 0",
			binary.AppendUvarint([]byte{0, 1}, 1<<31)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DeserializeHeapFile(bytes.NewReader(tc.data), nil)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.want)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 4*blobChunk {
			t.Errorf("%s: allocated %d bytes", tc.name, grown)
		}
	}
}

// FuzzDeserializeHeapFile feeds arbitrary bytes to DeserializeHeapFile. It
// must never panic, and for every heap it accepts, Scan and a Get of
// every slot of every page must return rows or errors, never panic.
func FuzzDeserializeHeapFile(f *testing.F) {
	good := serializedHeap(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DeserializeHeapFile(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		_ = h.Scan(func(RID, []types.Value) error { return nil })
		for pi, p := range h.pageSnapshot() {
			for si := 0; si <= p.nslots(); si++ {
				_, _ = h.Get(RID{Page: int32(pi), Slot: int32(si)})
			}
		}
	})
}
