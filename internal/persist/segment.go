package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"

	"robustscale/internal/wire"
)

// Segments: one checkpoint round of a whole fleet is one sequence-numbered
// file under the state root — one fsync and one rename for every tenant's
// snapshot together — and a single tenant's checkpoint is a segment of one
// record. The file is a header followed by one framed record per tenant,
// in tenant-index order:
//
//	header  magic "RSSG" | version u32 | record count u32
//	record  id length u16 | payload length u32 | crc32 u32 | tenant id | state
//
// (little endian; the CRC is IEEE over id and state; the state layout is
// appendState's). A gob stream per record would re-send State's type
// descriptors four hundred times a segment and rebuild a decode engine
// for each on the way back, so records — and the component blobs inside
// them — carry the fields directly.
//
// Every record is length-bounded and CRC-checked on its own, so a damaged
// record costs only its tenant this segment: recovery hands that tenant
// its record from the next-older segment and every other tenant its
// newest one. A record whose frame header is itself implausible ends the
// scan of that file — the tenants behind it fall back the same way.
const (
	// SegmentMagic opens every segment file.
	SegmentMagic = "RSSG"
	// SegmentVersion is the segment format version; bump it on any change
	// to State, the framing above or the layout of a component blob a
	// record carries — blobs have no version of their own. Version 2:
	// component blobs in the wire codec instead of gob. Version 3: one
	// breaker blob, counting ticks, for apply, wake and pool quarantine.
	// Version 4: the models, nn parameters and obs rings in the wire codec
	// too, so no blob is gob.
	SegmentVersion = 4

	segHeaderLen  = 12
	recHeaderLen  = 10
	segmentPrefix = "segment-"
	segmentSuffix = ".seg"
)

// SegmentStore owns a fleet state root: tenants encode their snapshots
// into per-tenant slots (concurrently, one goroutine per slot at a time),
// Commit publishes the slots as the next segment, and each slot's Recover
// runs the recovery ladder over the segments found at open.
type SegmentStore struct {
	seqDir
	// slots hold each tenant's framed record between its Write and the
	// Commit that publishes and releases it: a fleet's records are only
	// ever all resident while a round is being committed.
	slots [][]byte
	// views are the Slots handed out; loaded the segments found at open,
	// newest first; recovered what each slot's Recover decodes into.
	views     []Slot
	loaded    []*segment
	recovered []State
}

// segment is one on-disk segment, parsed at most once.
type segment struct {
	path string
	once sync.Once
	recs map[string][]byte // payloads that passed their frame checks, by tenant id
	err  error             // the first damage found while parsing; nil for a clean file
}

// OpenSegments opens (creating if needed) a fleet state root for the
// given number of tenant slots and lists its segments once.
func OpenSegments(dir string, retain, tenants int) (*SegmentStore, error) {
	d, err := openSeqDir(dir, segmentPrefix, segmentSuffix, retain)
	if err != nil {
		return nil, err
	}
	s := &SegmentStore{seqDir: d, slots: make([][]byte, tenants), views: make([]Slot, tenants), loaded: d.segments()}
	if len(s.loaded) > 0 {
		s.recovered = make([]State, tenants)
	}
	return s, nil
}

// Slot is one tenant's view of the store, with the Recover/Write shape
// of a Manager.
type Slot struct {
	s     *SegmentStore
	index int
	want  *Fingerprint
}

// Slot returns the store view of the tenant at a slot index. want is the
// fingerprint the tenant resumes only under: its Tenant keys the records,
// and a recovered record that matches it shares its strings.
func (s *SegmentStore) Slot(index int, want *Fingerprint) (*Slot, error) {
	if err := ValidTenantID(want.Tenant); err != nil {
		return nil, err
	}
	if index < 0 || index >= len(s.slots) {
		return nil, fmt.Errorf("persist: slot %d outside the %d opened", index, len(s.slots))
	}
	s.views[index] = Slot{s: s, index: index, want: want}
	return &s.views[index], nil
}

// Write frames the state into the tenant's slot; nothing reaches the disk
// before the store's next Commit. The returned path is always empty.
func (sl *Slot) Write(st *State) (string, error) {
	rec, err := appendRecord(nil, sl.want.Tenant, st)
	sl.s.slots[sl.index] = rec // nil on an error: the tenant sits this segment out
	return "", err
}

// Recover runs the tenant's recovery ladder (recoverTenant) over the
// segments found at open, into the store's State for the slot, which
// DropRecovered releases. Safe for concurrent use across tenants.
func (sl *Slot) Recover() (*State, RecoverInfo, error) {
	var st *State
	if sl.s.recovered != nil {
		st = &sl.s.recovered[sl.index]
		st.Fingerprint = *sl.want
	}
	return recoverTenant(sl.s.loaded, sl.want.Tenant, st)
}

// recoverTenant is the one recovery ladder, a Manager's and a fleet
// slot's: it walks segments newest-first and returns st holding the
// tenant's first record that validates and decodes. It returns (nil, info, nil) when
// nothing was ever written for the tenant, and ErrNoCheckpoint (wrapping
// the last rejection) when records or segments existed but none survived;
// the caller cold-starts either way.
func recoverTenant(segs []*segment, tenant string, st *State) (*State, RecoverInfo, error) {
	var info RecoverInfo
	var lastErr error
	for _, g := range segs {
		g.once.Do(func() { g.recs, g.err = readSegment(g.path) })
		err := g.err
		if payload, ok := g.recs[tenant]; ok {
			derr := decodeRecord(payload, st)
			if derr == nil {
				info.Path = g.path
				ckptRecoveries.Inc()
				return st, info, nil
			}
			err = derr
		}
		// The tenant is missing from a damaged file, or its record does
		// not decode: this segment is lost to it. Missing from a clean
		// file just means it was not in the fleet that round.
		if err != nil {
			info.Rejected = append(info.Rejected, g.path)
			ckptCorrupt.Inc()
			lastErr = err
		}
	}
	if lastErr != nil {
		return nil, info, fmt.Errorf("%w: %s rejected in all %d segments holding it, last: %w",
			ErrNoCheckpoint, tenant, len(info.Rejected), lastErr)
	}
	return nil, info, nil
}

// DropRecovered releases the segments read for recovery, the images
// every recovered section views and the States they were decoded into,
// once every tenant has started.
func (s *SegmentStore) DropRecovered() { s.loaded, s.recovered = nil, nil }

// Commit publishes every record written since the last one, in index
// order, as the next segment — the same temp file, fsync, rename,
// directory fsync and prune as a Manager write, once for the whole fleet
// — and releases the records whether or not it succeeded. A tenant that
// wrote nothing this round is absent from the segment; recovery finds it
// in an older one. It returns the segment path.
func (s *SegmentStore) Commit() (string, error) {
	defer clear(s.slots)
	return s.commitCheckpoint(func(w io.Writer) error {
		n := 0
		for _, rec := range s.slots {
			if rec != nil {
				n++
			}
		}
		hdr := segmentHeader(n)
		bw := bufio.NewWriterSize(w, 1<<16)
		bw.Write(hdr[:])
		for _, rec := range s.slots {
			bw.Write(rec)
		}
		if err := bw.Flush(); err != nil { // the first failed write, if any
			return fmt.Errorf("persist: writing segment: %w", err)
		}
		return nil
	})
}

// segmentHeader is the header of a segment holding n records.
func segmentHeader(n int) [segHeaderLen]byte {
	var hdr [segHeaderLen]byte
	copy(hdr[0:4], SegmentMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], SegmentVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
	return hdr
}

// appendRecord appends the tenant's state to b as one framed record.
func appendRecord(b []byte, tenant string, st *State) ([]byte, error) {
	start := len(b)
	b = slices.Grow(b, recHeaderLen+len(tenant)+stateSizeBound(st))
	b = append(b[:start+recHeaderLen], tenant...)
	b = appendState(b, st)
	body := b[start+recHeaderLen:]
	payload := len(body) - len(tenant)
	if payload > DefaultMaxBytes {
		return nil, fmt.Errorf("persist: %d-byte record exceeds the %d-byte limit", payload, DefaultMaxBytes)
	}
	binary.LittleEndian.PutUint16(b[start:], uint16(len(tenant)))
	binary.LittleEndian.PutUint32(b[start+2:], uint32(payload))
	binary.LittleEndian.PutUint32(b[start+6:], crc32.ChecksumIEEE(body))
	return b, nil
}

// writeOneRecord writes the image of a segment holding only the tenant's
// state: what a Manager commits and Encode writes.
func writeOneRecord(w io.Writer, tenant string, st *State) error {
	hdr := segmentHeader(1)
	seg, err := appendRecord(hdr[:], tenant, st)
	if err != nil {
		return err
	}
	if _, err := w.Write(seg); err != nil {
		return fmt.Errorf("persist: writing segment: %w", err)
	}
	return nil
}

// readSegment reads one segment file whole — its size is what the disk
// holds, never what a header claims — and parses it.
func readSegment(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading segment: %v", ErrCorrupt, err)
	}
	return parseSegment(data, DefaultMaxBytes)
}

// parseSegment validates a segment image and returns the payload of every
// record that passed its length bound and CRC, keyed by tenant id, along
// with the first damage found (ErrCorrupt or ErrVersionSkew; nil for a
// clean image). Payloads alias data: a length claim is only ever checked
// against maxBytes and the bytes present, never allocated.
func parseSegment(data []byte, maxBytes int64) (map[string][]byte, error) {
	if len(data) < segHeaderLen {
		return nil, fmt.Errorf("%w: short segment header (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != SegmentMagic {
		return nil, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != SegmentVersion {
		return nil, fmt.Errorf("%w: segment version %d, this build reads %d", ErrVersionSkew, v, SegmentVersion)
	}
	count := int64(binary.LittleEndian.Uint32(data[8:12]))
	rest := data[segHeaderLen:]
	var good [][]byte // the framed records that pass
	var ids []byte    // their ids end to end: one string every key is cut from
	var damage error
	damaged := func(format string, args ...any) {
		if damage == nil {
			damage = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
		}
	}
	for off := segHeaderLen; len(rest) > 0; {
		if len(rest) < recHeaderLen {
			damaged("record header truncated at offset %d", off)
			break
		}
		idLen := int(binary.LittleEndian.Uint16(rest[0:2]))
		n := int64(binary.LittleEndian.Uint32(rest[2:6]))
		sum := binary.LittleEndian.Uint32(rest[6:10])
		if idLen == 0 || idLen > maxTenantIDLen || n > maxBytes {
			damaged("record at offset %d claims a %d-byte id and %d-byte payload", off, idLen, n)
			break
		}
		size := recHeaderLen + idLen + int(n)
		if size > len(rest) {
			damaged("record at offset %d truncated at %d of %d bytes", off, len(rest), size)
			break
		}
		body := rest[recHeaderLen:size]
		if crc32.ChecksumIEEE(body) == sum {
			good, ids = append(good, rest[:size]), append(ids, body[:idLen]...)
		} else {
			// The frame still says where the next record starts.
			damaged("record CRC mismatch at offset %d", off)
		}
		rest, off = rest[size:], off+size
	}
	keys := string(ids)
	recs := make(map[string][]byte, len(good))
	for _, rec := range good {
		idLen := int(binary.LittleEndian.Uint16(rec))
		recs[keys[:idLen]], keys = rec[recHeaderLen+idLen:], keys[idLen:]
	}
	if int64(len(recs)) != count {
		damaged("segment holds %d records, header says %d", len(recs), count)
	}
	return recs, damage
}

// appendState appends a record's state in the wire codec: SavedAt (a
// wire.AppendTime section), then every other field of State and
// Fingerprint in declaration order.
// TestStateCodecCoversEveryField fails when a field is added to State
// and not here.
func appendState(b []byte, st *State) []byte {
	b = wire.AppendTime(b, st.SavedAt)
	fp := &st.Fingerprint
	b = wire.AppendSection(b, fp.Strategy)
	b = wire.AppendSection(b, fp.Tenant)
	b = wire.AppendSection(b, fp.Dataset)
	b = binary.AppendVarint(b, fp.Seed)
	b = wire.AppendFloat(b, fp.Theta)
	b = binary.AppendVarint(b, int64(fp.Horizon))
	b = wire.AppendFloat(b, fp.Tau)
	b = wire.AppendFloat(b, fp.Tau2)
	for _, v := range [...]int{st.Origin, st.PrevAlloc, st.Steps, st.Violations, st.Holds} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = wire.AppendFloat(b, st.Rho)
	b = wire.AppendSection(b, st.ForecasterKind)
	for _, sec := range [...][]byte{st.Forecaster, st.Calibration, st.Guard, st.Breaker, st.Journal, st.Decisions, st.SLO, st.Extra} {
		b = wire.AppendSection(b, sec)
	}
	return b
}

// stateSizeBound is an upper bound on what appendState appends: the
// variable-length fields plus room for every prefix and number at its
// widest (24 fields of at most 10 bytes, and SavedAt's 16).
func stateSizeBound(st *State) int {
	fp := &st.Fingerprint
	return 256 + len(fp.Strategy) + len(fp.Tenant) + len(fp.Dataset) + len(st.ForecasterKind) +
		len(st.Forecaster) + len(st.Calibration) + len(st.Guard) + len(st.Breaker) +
		len(st.Journal) + len(st.Decisions) + len(st.SLO) + len(st.Extra)
}

// decodeRecord is appendState's inverse, into st (untouched on an error),
// over a payload that already passed its length and CRC checks; every
// length inside is still checked against the bytes present. A fingerprint
// string equal to st's keeps st's: the expected record costs no string.
// Sections are read-only views of the segment image: every component's
// Load copies what it keeps, so nothing holds the image once
// DropRecovered has released it.
func decodeRecord(payload []byte, into *State) error {
	r := wire.NewReader(payload)
	was := &into.Fingerprint
	st := State{SavedAt: r.Time()}
	fp := &st.Fingerprint
	fp.Strategy, fp.Tenant, fp.Dataset = same(r.Section(), was.Strategy), same(r.Section(), was.Tenant), same(r.Section(), was.Dataset)
	fp.Seed, fp.Theta, fp.Horizon, fp.Tau, fp.Tau2 = r.Varint(), r.Float(), r.Int(), r.Float(), r.Float()
	for _, v := range [...]*int{&st.Origin, &st.PrevAlloc, &st.Steps, &st.Violations, &st.Holds} {
		*v = r.Int()
	}
	st.Rho = r.Float()
	st.ForecasterKind = string(r.Section())
	for _, sec := range [...]*[]byte{&st.Forecaster, &st.Calibration, &st.Guard, &st.Breaker, &st.Journal, &st.Decisions, &st.SLO, &st.Extra} {
		if raw := r.Section(); len(raw) > 0 {
			*sec = raw
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: decoding record: %v", ErrCorrupt, err)
	}
	*into = st
	return nil
}

// same is s when sec holds it, else sec as a string of its own.
func same(sec []byte, s string) string {
	if string(sec) == s {
		return s
	}
	return string(sec)
}
