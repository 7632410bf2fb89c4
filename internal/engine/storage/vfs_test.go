package storage

import (
	"bytes"
	"io"
	"testing"
)

// TestMemFileGapsReadAsZeros holds MemVFS to file semantics once growth
// reuses spare capacity: bytes a Truncate cut off must not reappear when
// the file grows again, whether by Truncate, by a write past the end, or
// by a write after seeking beyond it.
func TestMemFileGapsReadAsZeros(t *testing.T) {
	v := NewMemVFS()
	f, err := v.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, 64)
	write := func(off int64, p []byte) {
		t.Helper()
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, want []byte) {
		t.Helper()
		g, err := v.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: file reads %x, want %x", label, got, want)
		}
	}
	zeros := func(n int) []byte { return make([]byte, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	write(0, old)
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(16); err != nil {
		t.Fatal(err)
	}
	check("truncate down then up", cat(old[:8], zeros(8)))

	write(0, old)
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	write(8, []byte("abcd"))
	check("truncate then write at the end", cat(old[:8], []byte("abcd")))

	write(0, old)
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	write(20, []byte("xy"))
	check("truncate then write past the end", cat(old[:8], zeros(12), []byte("xy")))

	if _, err := f.Seek(40, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	check("seek past the end then write", cat(old[:8], zeros(12), []byte("xy"), zeros(40), []byte("z")))
}
