// The binary checkpoint codec. A base snapshot and a delta each encode
// to one self-contained byte string:
//
//	magic    4 bytes: "CKPB" for a base, "CKPD" for a delta
//	format   uvarint, must equal Format
//	header   base: Seq, At; delta: Seq, ParentSeq, At
//	names    count, then each location node name once (length + bytes),
//	         in first-use order
//	sections base:  completed, ready, running, pending, catalog, order
//	         delta: tasks, added, catalog
//	stats    every engine.Stats field, in declaration order
//
// Every integer is a varint (zigzag for signed values, plain for counts
// and name indices), and every section and list starts with its element
// count. A catalog row refers to its replica nodes by name-table index, so
// decoding allocates each node name once per file rather than once per
// replica. Live-backend values are a length-prefixed byte string copied
// out of the read buffer.
//
// The decoder treats its input as hostile. It checks every count against
// the bytes that remain before allocating, accepts only the canonical
// encoding (minimal varints, 0/1 booleans, a duplicate-free name table in
// first-use order, no trailing bytes), and reports any malformed input as
// an error, never a panic. Canonical-only decoding makes decode∘encode the
// identity on the bytes, which the fuzz target checks. There is no
// per-frame checksum: the SHA-256 digest in the file name already covers
// every byte, and Store verifies it before decoding.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/engine"
)

const (
	baseMagic  = "CKPB"
	deltaMagic = "CKPD"
)

// Minimum encoded sizes in bytes, used to bound a count by the bytes that
// remain before anything is allocated for it.
const (
	minID         = 1 // one varint
	minKey        = 2 // Data, Ver
	minRecord     = 3 // ID, Epoch, output count
	minDeltaTask  = 5 // ID, State, Epoch, Completed, output count
	minCatalogRow = 6 // Data, Ver, Size, location count, HasValue, value length
	minName       = 1 // length
)

// encodeSnapshot returns the binary encoding of a base snapshot.
func encodeSnapshot(s *Snapshot) []byte {
	e := encoder{buf: make([]byte, 0, 64+
		4*(len(s.Order)+len(s.Ready)+len(s.Running)+len(s.Pending))+
		8*len(s.Completed)+16*len(s.Catalog))}
	e.buf = append(e.buf, baseMagic...)
	e.uint(uint64(s.Format))
	e.int(int64(s.Seq))
	e.int(int64(s.At))
	e.names(s.Catalog)
	e.uint(uint64(len(s.Completed)))
	for _, r := range s.Completed {
		e.int(r.ID)
		e.int(int64(r.Epoch))
		e.keys(r.Outputs)
	}
	e.ids(s.Ready)
	e.ids(s.Running)
	e.ids(s.Pending)
	e.catalog(s.Catalog)
	e.ids(s.Order)
	e.stats(&s.Stats)
	return e.buf
}

// encodeDelta returns the binary encoding of a delta.
func encodeDelta(d *Delta) []byte {
	e := encoder{buf: make([]byte, 0, 64+12*len(d.Tasks)+4*len(d.Added)+16*len(d.Catalog))}
	e.buf = append(e.buf, deltaMagic...)
	e.uint(uint64(d.Format))
	e.int(int64(d.Seq))
	e.int(int64(d.ParentSeq))
	e.int(int64(d.At))
	e.names(d.Catalog)
	e.uint(uint64(len(d.Tasks)))
	for _, t := range d.Tasks {
		e.int(t.ID)
		e.int(int64(t.State))
		e.int(int64(t.Epoch))
		e.bool(t.Completed)
		e.keys(t.Outputs)
	}
	e.ids(d.Added)
	e.catalog(d.Catalog)
	e.stats(&d.Stats)
	return e.buf
}

// decodeSnapshot parses the encoding of a base snapshot.
func decodeSnapshot(b []byte) (*Snapshot, error) {
	d := decoder{b: b}
	s := &Snapshot{Format: d.header(baseMagic)}
	s.Seq = d.int()
	s.At = time.Duration(d.varint())
	d.nameTable()
	if n := d.count(minRecord); n > 0 {
		s.Completed = make([]TaskRecord, n)
		for i := range s.Completed {
			r := &s.Completed[i]
			r.ID = d.varint()
			r.Epoch = d.int()
			r.Outputs = d.keys()
		}
	}
	s.Ready = d.ids()
	s.Running = d.ids()
	s.Pending = d.ids()
	s.Catalog = d.catalog()
	s.Order = d.ids()
	d.stats(&s.Stats)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeDelta parses the encoding of a delta.
func decodeDelta(b []byte) (*Delta, error) {
	d := decoder{b: b}
	dl := &Delta{Format: d.header(deltaMagic)}
	dl.Seq = d.int()
	dl.ParentSeq = d.int()
	dl.At = time.Duration(d.varint())
	d.nameTable()
	if n := d.count(minDeltaTask); n > 0 {
		dl.Tasks = make([]DeltaTask, n)
		for i := range dl.Tasks {
			t := &dl.Tasks[i]
			t.ID = d.varint()
			t.State = engine.State(d.int())
			t.Epoch = d.int()
			t.Completed = d.bool()
			t.Outputs = d.keys()
		}
	}
	dl.Added = d.ids()
	dl.Catalog = d.catalog()
	d.stats(&dl.Stats)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return dl, nil
}

type encoder struct {
	buf   []byte
	index map[string]uint64 // node name → name-table index
}

func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) bytes(b []byte) {
	e.uint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// names writes the name table: every distinct location in the catalog,
// in first-use order.
func (e *encoder) names(cat []CatalogEntry) {
	e.index = make(map[string]uint64)
	var names []string
	for _, en := range cat {
		for _, loc := range en.Locations {
			if _, ok := e.index[loc]; !ok {
				e.index[loc] = uint64(len(names))
				names = append(names, loc)
			}
		}
	}
	e.uint(uint64(len(names)))
	for _, n := range names {
		e.uint(uint64(len(n)))
		e.buf = append(e.buf, n...)
	}
}

func (e *encoder) ids(ids []int64) {
	e.uint(uint64(len(ids)))
	for _, id := range ids {
		e.int(id)
	}
}

func (e *encoder) keys(keys []CatalogKey) {
	e.uint(uint64(len(keys)))
	for _, k := range keys {
		e.int(k.Data)
		e.int(int64(k.Ver))
	}
}

func (e *encoder) catalog(cat []CatalogEntry) {
	e.uint(uint64(len(cat)))
	for _, en := range cat {
		e.int(en.Key.Data)
		e.int(int64(en.Key.Ver))
		e.int(en.Size)
		e.uint(uint64(len(en.Locations)))
		for _, loc := range en.Locations {
			e.uint(e.index[loc])
		}
		e.bool(en.HasValue)
		e.bytes(en.Value)
	}
}

func (e *encoder) stats(s *engine.Stats) {
	for _, v := range [...]int64{
		int64(s.Launched), int64(s.Steals), int64(s.Completed), int64(s.Restored),
		int64(s.Reexecuted), int64(s.Transfers), s.BytesMoved, int64(s.TransferTime),
		int64(s.RanMissing), int64(s.Deferred), int64(s.Woken), int64(s.AvailRecomputes),
		int64(s.AdmitQueued), int64(s.AdmitRejected),
	} {
		e.int(v)
	}
}

// decoder reads one encoded file. The first error sticks: later reads
// return zero values, and finish reports it.
type decoder struct {
	b     []byte // the unread input
	err   error
	names []string
	used  int // name-table entries referenced so far (first-use order)
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// header checks the magic and the format version and returns the latter.
func (d *decoder) header(magic string) int {
	if len(d.b) < len(magic) || string(d.b[:len(magic)]) != magic {
		d.fail("bad magic, want %q", magic)
		return 0
	}
	d.b = d.b[len(magic):]
	f := d.uvarint()
	if d.err == nil && f != Format {
		d.fail("format %d, want %d", f, Format)
	}
	return int(f)
}

// uvarint reads a minimally encoded unsigned varint.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail("truncated")
		return 0
	case n < 0 || (n > 1 && d.b[n-1] == 0):
		d.fail("malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zigzag-encoded signed varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count and checks that that many elements of at
// least size bytes each fit in the remaining input.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) bool() bool {
	v := d.uvarint()
	if v > 1 {
		d.fail("bad boolean %d", v)
	}
	return v == 1
}

// bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty), so the result does not pin the read buffer.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b)
	d.b = d.b[n:]
	return out
}

func (d *decoder) nameTable() {
	n := d.count(minName)
	if n == 0 {
		return
	}
	d.names = make([]string, n)
	seen := make(map[string]struct{}, n)
	for i := range d.names {
		l := d.count(1)
		if d.err != nil {
			return
		}
		name := string(d.b[:l])
		d.b = d.b[l:]
		if _, dup := seen[name]; dup {
			d.fail("duplicate node name %q", name)
			return
		}
		seen[name] = struct{}{}
		d.names[i] = name
	}
}

// name resolves a name-table reference. References must introduce table
// entries in order, the order the encoder assigns them.
func (d *decoder) name() string {
	i := d.uvarint()
	switch {
	case d.err != nil:
		return ""
	case i > uint64(d.used) || i >= uint64(len(d.names)):
		d.fail("name index %d out of order or range", i)
		return ""
	case i == uint64(d.used):
		d.used++
	}
	return d.names[i]
}

func (d *decoder) ids() []int64 {
	n := d.count(minID)
	if n == 0 {
		return nil
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = d.varint()
	}
	return ids
}

func (d *decoder) keys() []CatalogKey {
	n := d.count(minKey)
	if n == 0 {
		return nil
	}
	keys := make([]CatalogKey, n)
	for i := range keys {
		keys[i] = CatalogKey{Data: d.varint(), Ver: d.int()}
	}
	return keys
}

func (d *decoder) catalog() []CatalogEntry {
	n := d.count(minCatalogRow)
	if n == 0 {
		return nil
	}
	cat := make([]CatalogEntry, n)
	for i := range cat {
		en := &cat[i]
		en.Key = CatalogKey{Data: d.varint(), Ver: d.int()}
		en.Size = d.varint()
		if nl := d.count(1); nl > 0 {
			en.Locations = make([]string, nl)
			for j := range en.Locations {
				en.Locations[j] = d.name()
			}
		}
		en.HasValue = d.bool()
		en.Value = d.bytes()
	}
	return cat
}

func (d *decoder) stats(s *engine.Stats) {
	s.Launched = d.int()
	s.Steals = d.int()
	s.Completed = d.int()
	s.Restored = d.int()
	s.Reexecuted = d.int()
	s.Transfers = d.int()
	s.BytesMoved = d.varint()
	s.TransferTime = time.Duration(d.varint())
	s.RanMissing = d.int()
	s.Deferred = d.int()
	s.Woken = d.int()
	s.AvailRecomputes = d.int()
	s.AdmitQueued = d.int()
	s.AdmitRejected = d.int()
}

// finish reports the first decoding error, an unused name-table entry, or
// bytes left over after the last section.
func (d *decoder) finish() error {
	switch {
	case d.err != nil:
		return d.err
	case d.used != len(d.names):
		return fmt.Errorf("%d of %d node names unused", len(d.names)-d.used, len(d.names))
	case len(d.b) > 0:
		return fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return nil
}
