// Package dataset represents d-dimensional binary datasets (d ≤ 64) and
// computes exact marginal contingency tables from them. A record is a
// bit string stored in a uint64: bit i holds the value of attribute i.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strings"

	"priview/internal/marginal"
)

// MaxDim is the largest supported dimensionality; records are packed
// into a single machine word.
const MaxDim = 64

// Dataset is an immutable collection of binary records over Dim
// attributes.
type Dataset struct {
	dim     int
	records []uint64
}

// New returns a dataset over dim attributes holding the given records.
// Bits at positions ≥ dim must be zero; they are masked off defensively.
func New(dim int, records []uint64) *Dataset {
	if dim <= 0 || dim > MaxDim {
		panic(fmt.Sprintf("dataset: dimension %d out of range (1..%d)", dim, MaxDim))
	}
	mask := maskFor(dim)
	rs := make([]uint64, len(records))
	for i, r := range records {
		rs[i] = r & mask
	}
	return &Dataset{dim: dim, records: rs}
}

func maskFor(dim int) uint64 {
	if dim == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(dim)) - 1
}

// Dim returns the number of binary attributes.
func (d *Dataset) Dim() int { return d.dim }

// Len returns N, the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Record returns the i-th record.
func (d *Dataset) Record(i int) uint64 { return d.records[i] }

// Records returns the underlying record slice. Callers must not mutate
// it; it is exposed for read-only scans by generators and tests.
func (d *Dataset) Records() []uint64 { return d.records }

// Attrs returns the full sorted attribute list {0, ..., dim-1}.
func (d *Dataset) Attrs() []int {
	a := make([]int, d.dim)
	for i := range a {
		a[i] = i
	}
	return a
}

// Marginal computes the exact marginal contingency table over the given
// attribute set by a single scan of the records. This is the only place
// raw data is aggregated; everything downstream works on tables.
//
// The scan is byte-table driven. Table k serves record byte k (bits
// 8k…8k+7): it maps that byte's value to the cell-index bits the
// view's attributes in the byte contribute, and stays all-zero when the
// view touches no attribute there. A record's cell index is then the OR
// of one lookup per record byte, each at a constant shift, instead of a
// shift/and/shift/or per attribute; variable shift counts cost several
// µops each on x86. Datasets with d ≤ 32 use a 4-lookup loop, wider
// ones an 8-lookup loop. Each record still adds exactly 1 to one cell,
// in record order, so the table is bit-identical to a per-bit scan.
func (d *Dataset) Marginal(attrs []int) *marginal.Table {
	t := marginal.New(attrs)
	var tabs [MaxDim / 8][256]uint32
	for j, a := range t.Attrs {
		if a < 0 || a >= d.dim {
			panic(fmt.Sprintf("dataset: attribute %d out of range for dim %d", a, d.dim))
		}
		tab, bit := &tabs[a>>3], uint(a)&7
		for v := range tab {
			tab[v] |= uint32(v>>bit&1) << uint(j)
		}
	}
	cells, recs := t.Cells, d.records
	t0, t1, t2, t3 := &tabs[0], &tabs[1], &tabs[2], &tabs[3]
	if d.dim <= 32 {
		//lint:hot
		for _, r := range recs {
			cells[t0[uint8(r)]|t1[uint8(r>>8)]|t2[uint8(r>>16)]|t3[uint8(r>>24)]]++
		}
		return t
	}
	t4, t5, t6, t7 := &tabs[4], &tabs[5], &tabs[6], &tabs[7]
	//lint:hot
	for _, r := range recs {
		cells[t0[uint8(r)]|t1[uint8(r>>8)]|t2[uint8(r>>16)]|t3[uint8(r>>24)]|
			t4[uint8(r>>32)]|t5[uint8(r>>40)]|t6[uint8(r>>48)]|t7[uint8(r>>56)]]++
	}
	return t
}

// FullContingency returns the complete 2^dim contingency table. It is
// only legal for dim ≤ 30 and exists to support the Flat baseline and
// small-d methods; large-d callers must work with marginals.
func (d *Dataset) FullContingency() *marginal.Table {
	return d.Marginal(d.Attrs())
}

// OneWayDensities returns, per attribute, the fraction of records with
// that attribute set. Useful for sanity checks and generators.
func (d *Dataset) OneWayDensities() []float64 {
	counts := make([]float64, d.dim)
	for _, r := range d.records {
		for r != 0 {
			b := bits.TrailingZeros64(r)
			counts[b]++
			r &= r - 1
		}
	}
	if len(d.records) == 0 {
		return counts
	}
	n := float64(len(d.records))
	for i := range counts {
		counts[i] /= n
	}
	return counts
}

// WriteTo serializes the dataset in a simple line-oriented text format:
// a header line "dim N" followed by one record per line as a bit string
// (attribute 0 first).
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	// Reject records with bits above the declared dimension before
	// writing anything: serializing them would silently drop attribute
	// values, producing a file that parses but lies about the data.
	mask := maskFor(d.dim)
	for i, r := range d.records {
		if r&^mask != 0 {
			return 0, fmt.Errorf("dataset: record %d (%#x) has bits above dimension %d", i, r, d.dim)
		}
	}
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "%d %d\n", d.dim, len(d.records))
	n += int64(c)
	if err != nil {
		return n, err
	}
	buf := make([]byte, d.dim+1)
	for _, r := range d.records {
		for i := 0; i < d.dim; i++ {
			if r>>uint(i)&1 == 1 {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		buf[d.dim] = '\n'
		c, err := bw.Write(buf)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFrom parses the format produced by WriteTo.
func ReadFrom(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var dim, count int
	if _, err := fmt.Fscanf(br, "%d %d\n", &dim, &count); err != nil {
		return nil, fmt.Errorf("dataset: bad header: %w", err)
	}
	if dim <= 0 || dim > MaxDim {
		return nil, fmt.Errorf("dataset: dimension %d out of range", dim)
	}
	if count < 0 {
		return nil, fmt.Errorf("dataset: negative record count %d", count)
	}
	// Pre-allocate from the header, but never trust it for more than a
	// modest chunk: a corrupt header must not force a huge allocation.
	capHint := count
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	records := make([]uint64, 0, capHint)
	for i := 0; i < count; i++ {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\n\r")
		if err != nil && line == "" {
			return nil, fmt.Errorf("dataset: truncated at record %d: %w", i, err)
		}
		if len(line) != dim {
			return nil, fmt.Errorf("dataset: record %d has %d bits, want %d", i, len(line), dim)
		}
		var rec uint64
		for j := 0; j < dim; j++ {
			switch line[j] {
			case '1':
				rec |= 1 << uint(j)
			case '0':
			default:
				return nil, fmt.Errorf("dataset: record %d has invalid character %q", i, line[j])
			}
		}
		records = append(records, rec)
	}
	// The header promised exactly count records; anything but trailing
	// whitespace afterwards means the header and body disagree — a
	// truncated count or a concatenated file — and silently dropping
	// the excess would hide the corruption.
	for {
		b, err := br.ReadByte()
		if err != nil {
			break
		}
		if b != '\n' && b != '\r' && b != ' ' && b != '\t' {
			return nil, fmt.Errorf("dataset: trailing data after %d declared records", count)
		}
	}
	return &Dataset{dim: dim, records: records}, nil
}
