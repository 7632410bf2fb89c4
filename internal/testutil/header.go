package testutil

// WithV1Header returns the stored XADT value b behind a v1 fragment
// header, the form values written by earlier versions of the loader
// take. Readers skip the header without looking at its contents, so this
// one is fixed: depth 0 and an 8-byte filter with every bit set.
func WithV1Header(b []byte) []byte {
	hdr := []byte{0xF8, 1, 10, 0, 8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	return append(hdr, b...)
}
