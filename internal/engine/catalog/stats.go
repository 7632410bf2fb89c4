// Statistics collection: equi-depth histograms, hybrid exact/HLL
// distinct sketches, null fractions, and element-path frequencies for
// XADT columns. RunStats builds these in one heap scan; the planner's
// cost model consumes them through StatsSnapshot. The binary codec at
// the bottom persists them inside catalog snapshots (format v3) so
// loaded stores keep their statistics without a rescan.
package catalog

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine/types"
	"repro/internal/xadt"
)

const (
	// statsMaxSample caps per-column histogram samples: RunStats strides
	// the heap so at most this many values feed each histogram.
	statsMaxSample = 4096
	// statsHistBuckets is the equi-depth bucket budget per histogram.
	statsHistBuckets = 32
	// statsExactDistinct is the exact-counting ceiling: below it a
	// column's distinct count is exact, above it the counter degrades to
	// an HLL-style register sketch.
	statsExactDistinct = 4096
	// hllPrecision/hllRegisters size the sketch: 2^8 registers of the
	// max leading-zero rank, the standard HyperLogLog layout.
	hllPrecision = 8
	hllRegisters = 1 << hllPrecision
	// statsMaxPaths caps the element-path frequency table per XADT
	// column (top names by estimated count).
	statsMaxPaths = 64
	// DefaultStaleRatio is the modification fraction past which the
	// planner distrusts statistics: once DML has touched more than this
	// fraction of the rows counted at the last RunStats, estimates fall
	// back to live row counts and default selectivities (and the
	// auto-refresh path reruns RunStats on non-MVCC catalogs).
	DefaultStaleRatio = 0.3
)

// ColStats are the per-column statistics RunStats computes.
type ColStats struct {
	// Distinct is the (possibly sketch-estimated) distinct value count.
	Distinct int
	// NullFrac is the fraction of rows with a NULL in this column.
	NullFrac float64
	// Hist is an equi-depth histogram over non-null values; nil for
	// XADT columns and columns with no sampled values.
	Hist *Histogram
	// PathFreq estimates, for XADT columns, how many times each element
	// name occurs across the column's fragments (scaled from the sampled
	// rows, capped at statsMaxPaths entries). Nil for scalar columns.
	PathFreq map[string]int
	// Sketch holds the HLL registers when the distinct counter degraded
	// to a sketch; nil while counting stayed exact. Persisted so future
	// incremental refreshes could merge rather than rescan.
	Sketch []uint8
}

// Histogram is an equi-depth histogram: Bounds[i] is the inclusive
// upper bound of bucket i, Counts[i] the estimated rows in it, and Min
// the smallest sampled value (the lower bound of bucket 0).
type Histogram struct {
	Kind   types.Kind
	Min    types.Value
	Bounds []types.Value
	Counts []int
	// Total is the non-null row count the buckets were scaled to.
	Total int
}

// FracBelow estimates the fraction of non-null values strictly less
// than v, interpolating linearly inside integer buckets and taking the
// half-bucket for strings (boundary samples only order them).
func (h *Histogram) FracBelow(v types.Value) float64 {
	if h == nil || h.Total <= 0 || len(h.Bounds) == 0 {
		return 0.5
	}
	if types.Compare(v, h.Min) <= 0 {
		return 0
	}
	cum := 0.0
	lo := h.Min
	for i, bound := range h.Bounds {
		if types.Compare(bound, v) < 0 {
			cum += float64(h.Counts[i])
			lo = bound
			continue
		}
		frac := 0.5
		if h.Kind == types.KindInt {
			span := float64(bound.Int() - lo.Int())
			if span > 0 {
				frac = float64(v.Int()-lo.Int()) / span
			} else {
				frac = 1
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
		}
		cum += frac * float64(h.Counts[i])
		return cum / float64(h.Total)
	}
	return 1
}

// distinctCounter counts distinct value hashes exactly until
// statsExactDistinct, then converts to an HLL register sketch.
type distinctCounter struct {
	exact map[uint64]struct{}
	regs  []uint8
}

func newDistinctCounter() *distinctCounter {
	return &distinctCounter{exact: make(map[uint64]struct{})}
}

func (d *distinctCounter) add(h uint64) {
	if d.regs == nil {
		d.exact[h] = struct{}{}
		if len(d.exact) <= statsExactDistinct {
			return
		}
		d.regs = make([]uint8, hllRegisters)
		for x := range d.exact {
			d.observe(x)
		}
		d.exact = nil
		return
	}
	d.observe(h)
}

func (d *distinctCounter) observe(h uint64) {
	j := h >> (64 - hllPrecision)
	rank := uint8(bits.LeadingZeros64(h<<hllPrecision)) + 1
	if max := uint8(64 - hllPrecision + 1); rank > max {
		rank = max
	}
	if rank > d.regs[j] {
		d.regs[j] = rank
	}
}

func (d *distinctCounter) estimate() int {
	if d.regs == nil {
		return len(d.exact)
	}
	return hllEstimate(d.regs)
}

// hllEstimate is the standard HyperLogLog estimator with the
// small-range linear-counting correction.
func hllEstimate(regs []uint8) int {
	m := float64(len(regs))
	sum := 0.0
	zeros := 0
	for _, r := range regs {
		sum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	if est < 1 {
		est = 1
	}
	return int(est + 0.5)
}

// buildHistogram makes an equi-depth histogram from a sorted-on-entry
// or unsorted sample, scaling bucket counts to totalNonNull rows.
func buildHistogram(kind types.Kind, sample []types.Value, totalNonNull int) *Histogram {
	if len(sample) == 0 || totalNonNull <= 0 {
		return nil
	}
	sorted := append([]types.Value(nil), sample...)
	// Values that compare equal are interchangeable here, so an unstable
	// sort yields the same bounds and counts.
	slices.SortFunc(sorted, types.Compare)
	nb := statsHistBuckets
	if nb > len(sorted) {
		nb = len(sorted)
	}
	h := &Histogram{Kind: kind, Min: sorted[0], Total: totalNonNull}
	scale := float64(totalNonNull) / float64(len(sorted))
	prev := 0
	for b := 1; b <= nb; b++ {
		hi := b * len(sorted) / nb
		if hi <= prev {
			continue
		}
		bound := sorted[hi-1]
		count := int(float64(hi-prev)*scale + 0.5)
		// Merge buckets that share an upper bound (heavy duplicates).
		if n := len(h.Bounds); n > 0 && types.Compare(h.Bounds[n-1], bound) == 0 {
			h.Counts[n-1] += count
		} else {
			h.Bounds = append(h.Bounds, bound)
			h.Counts = append(h.Counts, count)
		}
		prev = hi
	}
	return h
}

// elementCounter tallies the element names of stored XADT fragments from
// their stored element table, reusing its working space across rows.
type elementCounter struct {
	w    xadt.Walker
	text []byte
}

// count adds the element names of the fragment v to freq. A fragment
// that does not scan is skipped, so its error is dropped: statistics
// must never fail a scan.
func (c *elementCounter) count(v types.Value, freq map[string]int) {
	c.text, _ = c.w.Walk(v.XADT(), c.text[:0], func(name []byte, _ int) { freq[string(name)]++ })
}

// capPathFreq keeps the statsMaxPaths highest-count entries,
// deterministically (count desc, then name asc).
func capPathFreq(freq map[string]int) map[string]int {
	if len(freq) == 0 {
		return nil
	}
	if len(freq) <= statsMaxPaths {
		return freq
	}
	type kv struct {
		name  string
		count int
	}
	all := make([]kv, 0, len(freq))
	for k, v := range freq {
		all = append(all, kv{k, v})
	}
	slices.SortFunc(all, func(a, b kv) int {
		if c := cmp.Compare(b.count, a.count); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	out := make(map[string]int, statsMaxPaths)
	for _, e := range all[:statsMaxPaths] {
		out[e.name] = e.count
	}
	return out
}

// StaleRatio reports how much DML the table has absorbed since this
// Stats was computed, as a fraction of the row count it measured.
// Invalid statistics are infinitely stale. StatsSnapshot fills the
// modification delta; a Stats read directly off a Table reports 0.
func (s *Stats) StaleRatio() float64 {
	if s == nil || !s.Valid {
		return math.Inf(1)
	}
	if s.ModsSince <= 0 {
		return 0
	}
	rows := s.Rows
	if rows < 1 {
		rows = 1
	}
	return float64(s.ModsSince) / float64(rows)
}

// Fresh reports whether the statistics are valid and within the
// staleness budget — the planner's precondition for trusting them.
func (s *Stats) Fresh() bool {
	return s != nil && s.Valid && s.StaleRatio() <= DefaultStaleRatio
}

// Col returns the per-column statistics, or a zero value.
func (s *Stats) Col(name string) (ColStats, bool) {
	if s == nil || !s.Valid || s.Cols == nil {
		return ColStats{}, false
	}
	cs, ok := s.Cols[name]
	return cs, ok
}

// ---- binary codec -------------------------------------------------------

// statsMagic versions the standalone statistics encoding (also embedded
// in catalog snapshots from format v3 on).
const statsMagic = "XSTATS01"

// nullFracScale fixes the null-fraction fixed-point denominator.
const nullFracScale = 1 << 30

// EncodeStats serializes per-table statistics deterministically
// (columns and path names sorted).
func EncodeStats(s *Stats) []byte {
	var buf bytes.Buffer
	buf.WriteString(statsMagic)
	writeUvarint(&buf, uint64(s.Rows))
	writeUvarint(&buf, uint64(s.Pages))
	writeUvarint(&buf, uint64(s.ModsSince))
	names := make([]string, 0, len(s.Cols))
	for n := range s.Cols {
		names = append(names, n)
	}
	sort.Strings(names)
	writeUvarint(&buf, uint64(len(names)))
	for _, n := range names {
		cs := s.Cols[n]
		writeString(&buf, n)
		writeUvarint(&buf, uint64(cs.Distinct))
		writeUvarint(&buf, uint64(cs.NullFrac*nullFracScale+0.5))
		if cs.Hist == nil {
			buf.WriteByte(0)
		} else {
			buf.WriteByte(1)
			writeUvarint(&buf, uint64(cs.Hist.Kind))
			encodeStatValue(&buf, cs.Hist.Min)
			writeUvarint(&buf, uint64(len(cs.Hist.Bounds)))
			for i, b := range cs.Hist.Bounds {
				encodeStatValue(&buf, b)
				writeUvarint(&buf, uint64(cs.Hist.Counts[i]))
			}
			writeUvarint(&buf, uint64(cs.Hist.Total))
		}
		paths := make([]string, 0, len(cs.PathFreq))
		for p := range cs.PathFreq {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		writeUvarint(&buf, uint64(len(paths)))
		for _, p := range paths {
			writeString(&buf, p)
			writeUvarint(&buf, uint64(cs.PathFreq[p]))
		}
		writeUvarint(&buf, uint64(len(cs.Sketch)))
		buf.Write(cs.Sketch)
	}
	return buf.Bytes()
}

// DecodeStats parses an EncodeStats blob, rejecting corrupt or
// implausible input with an error (never a panic).
func DecodeStats(b []byte) (*Stats, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	magic := make([]byte, len(statsMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("stats: magic: %w", err)
	}
	if string(magic) != statsMagic {
		return nil, fmt.Errorf("stats: bad magic %q", magic)
	}
	rows, err := readBoundedUvarint(br, 1<<40)
	if err != nil {
		return nil, err
	}
	pages, err := readBoundedUvarint(br, 1<<40)
	if err != nil {
		return nil, err
	}
	mods, err := readBoundedUvarint(br, 1<<40)
	if err != nil {
		return nil, err
	}
	ncols, err := readBoundedUvarint(br, 4096)
	if err != nil {
		return nil, err
	}
	s := &Stats{
		Rows: int(rows), Pages: int(pages), ModsSince: int64(mods),
		Distinct: map[string]int{}, Cols: map[string]ColStats{}, Valid: true,
	}
	for i := uint64(0); i < ncols; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		distinct, err := readBoundedUvarint(br, 1<<40)
		if err != nil {
			return nil, err
		}
		nf, err := readBoundedUvarint(br, nullFracScale)
		if err != nil {
			return nil, err
		}
		cs := ColStats{Distinct: int(distinct), NullFrac: float64(nf) / nullFracScale}
		hasHist, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch hasHist {
		case 0:
		case 1:
			kind, err := readBoundedUvarint(br, 16)
			if err != nil {
				return nil, err
			}
			min, err := decodeStatValue(br)
			if err != nil {
				return nil, err
			}
			nb, err := readBoundedUvarint(br, 1024)
			if err != nil {
				return nil, err
			}
			h := &Histogram{Kind: types.Kind(kind), Min: min}
			for j := uint64(0); j < nb; j++ {
				bound, err := decodeStatValue(br)
				if err != nil {
					return nil, err
				}
				count, err := readBoundedUvarint(br, 1<<40)
				if err != nil {
					return nil, err
				}
				h.Bounds = append(h.Bounds, bound)
				h.Counts = append(h.Counts, int(count))
			}
			total, err := readBoundedUvarint(br, 1<<40)
			if err != nil {
				return nil, err
			}
			h.Total = int(total)
			cs.Hist = h
		default:
			return nil, fmt.Errorf("stats: bad histogram flag %d", hasHist)
		}
		npaths, err := readBoundedUvarint(br, 4096)
		if err != nil {
			return nil, err
		}
		if npaths > 0 {
			cs.PathFreq = make(map[string]int, npaths)
			for j := uint64(0); j < npaths; j++ {
				p, err := readString(br)
				if err != nil {
					return nil, err
				}
				count, err := readBoundedUvarint(br, 1<<40)
				if err != nil {
					return nil, err
				}
				cs.PathFreq[p] = int(count)
			}
		}
		nsketch, err := readBoundedUvarint(br, 1<<16)
		if err != nil {
			return nil, err
		}
		if nsketch > 0 {
			cs.Sketch = make([]uint8, nsketch)
			if _, err := io.ReadFull(br, cs.Sketch); err != nil {
				return nil, err
			}
		}
		s.Cols[name] = cs
		s.Distinct[name] = cs.Distinct
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("stats: trailing bytes")
	}
	return s, nil
}

func encodeStatValue(buf *bytes.Buffer, v types.Value) {
	switch v.Kind() {
	case types.KindInt:
		buf.WriteByte(1)
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v.Int())
		buf.Write(tmp[:n])
	case types.KindString:
		buf.WriteByte(2)
		writeString(buf, v.Str())
	default:
		buf.WriteByte(0)
	}
}

func decodeStatValue(br *bufio.Reader) (types.Value, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return types.Null, err
	}
	switch tag {
	case 0:
		return types.Null, nil
	case 1:
		i, err := binary.ReadVarint(br)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(i), nil
	case 2:
		s, err := readString(br)
		if err != nil {
			return types.Null, err
		}
		return types.NewString(s), nil
	default:
		return types.Null, fmt.Errorf("stats: bad value tag %d", tag)
	}
}

func readBoundedUvarint(br *bufio.Reader, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("stats: implausible count %d", v)
	}
	return v, nil
}
