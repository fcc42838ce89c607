package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"robustscale/internal/wire"
)

// Series file: the workload series a fleet derived at build time, kept
// beside its segments so a restart reads them back instead of deriving
// them again. It is a cache, not a checkpoint — losing all or part of it
// costs CPU time and nothing else — so there is one file, written once
// through the package's commit routine and replaced only when a reader
// missed:
//
//	header  magic "RSSR" | version u32 | generator revision u32 | record count u32
//	index   record count × record offset u64 | crc32 u32
//	record  key length u16 | value count u32 | crc32 u32 | key | values
//
// (little endian; the index CRC is IEEE over header and offsets, a
// record's over its key and values; values are float64 bits). Records are
// in slot order. The key is whatever the owner derived the series from: a
// record is served only to a reader presenting the same bytes.
//
// A reader holds the index and reads one record at a time at its offset,
// so a fleet's series are never resident together on their way back. The
// size of every read is what the reader asks for, checked against the
// bytes the file holds — never a length the file claims.
const (
	// SeriesMagic opens every series file.
	SeriesMagic = "RSSR"
	// SeriesVersion is the series file format version.
	SeriesVersion = 1

	serHeaderLen    = 16
	serRecHeaderLen = 10
	seriesPrefix    = "series-"
	seriesSuffix    = ".ser"
)

// errNoSeries is the miss of a state root that holds no series file.
var errNoSeries = errors.New("persist: no series file")

// SeriesRecord is one slot of a series file.
type SeriesRecord struct {
	Key    []byte
	Values []float64
}

// SeriesStore is the series file of a state root: Read serves records of
// the file found at open, Write replaces it.
type SeriesStore struct {
	seqDir
	revision uint32
	f        *os.File // the file found at open; nil when unusable
	file     *seriesFile
	miss     error // why every Read misses, when file is nil
}

// OpenSeries opens the newest series file under a state root (creating
// the root if needed). Only a file written at the same generator
// revision is served. A missing or damaged file is not an error: every
// Read then misses.
func OpenSeries(dir string, revision uint32) (*SeriesStore, error) {
	d, err := openSeqDir(dir, seriesPrefix, seriesSuffix, 1)
	if err != nil {
		return nil, err
	}
	s := &SeriesStore{seqDir: d, revision: revision, miss: errNoSeries}
	if len(d.files) == 0 {
		return s, nil
	}
	f, err := os.Open(d.files[len(d.files)-1])
	if err != nil {
		s.miss = fmt.Errorf("%w: opening series file: %v", ErrCorrupt, err)
		return s, nil
	}
	var size int64
	if info, err := f.Stat(); err == nil {
		size = info.Size()
	}
	if s.file, s.miss = openSeriesFile(f, size, revision); s.miss != nil {
		_ = f.Close() // nothing was written through it
		return s, nil
	}
	s.f = f
	return s, nil
}

// Read returns the n values stored in a slot under exactly this key, in
// a slice of its own. Any error is a miss — no file, a damaged index, a
// slot the file does not have, a torn or bit-flipped record, another key
// or length — and costs the caller only the work of deriving the series
// again. Safe for concurrent use.
func (s *SeriesStore) Read(slot int, key []byte, n int) ([]float64, error) {
	if s.file == nil {
		return nil, s.miss
	}
	return s.file.read(slot, key, n)
}

// Write publishes the records, in order, as the root's series file —
// temp file, fsync, rename, directory fsync — and removes the one it
// replaces. It is not a checkpoint and the checkpoint instruments do not
// count it.
func (s *SeriesStore) Write(recs []SeriesRecord) (string, error) {
	path, _, err := s.commit(func(w io.Writer) error {
		index := make([]byte, serHeaderLen+8*len(recs)+4)
		copy(index[0:4], SeriesMagic)
		binary.LittleEndian.PutUint32(index[4:8], SeriesVersion)
		binary.LittleEndian.PutUint32(index[8:12], s.revision)
		binary.LittleEndian.PutUint32(index[12:16], uint32(len(recs)))
		off, longest := uint64(len(index)), 0
		for i, rec := range recs {
			if len(rec.Key) > math.MaxUint16 || len(rec.Values) > math.MaxUint32 {
				return fmt.Errorf("persist: series record %d has a %d-byte key and %d values", i, len(rec.Key), len(rec.Values))
			}
			binary.LittleEndian.PutUint64(index[serHeaderLen+8*i:], off)
			size := serRecHeaderLen + len(rec.Key) + 8*len(rec.Values)
			off += uint64(size)
			longest = max(longest, size)
		}
		sumAt := len(index) - 4
		binary.LittleEndian.PutUint32(index[sumAt:], crc32.ChecksumIEEE(index[:sumAt]))
		if _, err := w.Write(index); err != nil {
			return fmt.Errorf("persist: writing series index: %w", err)
		}
		// One record at a time through one buffer: the writer never holds
		// more than the longest record.
		buf := make([]byte, 0, longest)
		for _, rec := range recs {
			buf = binary.LittleEndian.AppendUint16(buf[:0], uint16(len(rec.Key)))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Values)))
			buf = append(buf, 0, 0, 0, 0)
			buf = append(buf, rec.Key...)
			for _, v := range rec.Values {
				buf = wire.AppendFloat(buf, v)
			}
			binary.LittleEndian.PutUint32(buf[6:10], crc32.ChecksumIEEE(buf[serRecHeaderLen:]))
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("persist: writing series record: %w", err)
			}
		}
		return nil
	})
	return path, err
}

// Close releases the file found at open; reads after it miss.
func (s *SeriesStore) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// seriesFile is the read side of one series file: its validated index
// over whatever holds the bytes.
type seriesFile struct {
	r       io.ReaderAt
	size    int64
	offsets []byte    // record count × u64
	bufs    sync.Pool // *[]byte: record buffers, reused across reads
}

// openSeriesFile validates the header and index of a series image of the
// given size.
func openSeriesFile(r io.ReaderAt, size int64, revision uint32) (*seriesFile, error) {
	var hdr [serHeaderLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: short series header: %v", ErrCorrupt, err)
	}
	if string(hdr[0:4]) != SeriesMagic {
		return nil, fmt.Errorf("%w: bad series magic %q", ErrCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != SeriesVersion {
		return nil, fmt.Errorf("%w: series file version %d, this build reads %d", ErrVersionSkew, v, SeriesVersion)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != revision {
		return nil, fmt.Errorf("%w: series generated at revision %d, this build generates %d", ErrVersionSkew, v, revision)
	}
	indexLen := 8*int64(binary.LittleEndian.Uint32(hdr[12:16])) + 4
	if indexLen > size-serHeaderLen {
		return nil, fmt.Errorf("%w: series index claims %d bytes, the file holds %d past its header", ErrCorrupt, indexLen, size-serHeaderLen)
	}
	index := make([]byte, indexLen)
	if _, err := r.ReadAt(index, serHeaderLen); err != nil {
		return nil, fmt.Errorf("%w: reading series index: %v", ErrCorrupt, err)
	}
	offsets := index[:indexLen-4]
	if crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, offsets) != binary.LittleEndian.Uint32(index[indexLen-4:]) {
		return nil, fmt.Errorf("%w: series index CRC mismatch", ErrCorrupt)
	}
	return &seriesFile{r: r, size: size, offsets: offsets}, nil
}

func (sf *seriesFile) read(slot int, key []byte, n int) ([]float64, error) {
	if slot < 0 || slot >= len(sf.offsets)/8 {
		return nil, fmt.Errorf("%w: slot %d outside the %d stored", ErrCorrupt, slot, len(sf.offsets)/8)
	}
	off := binary.LittleEndian.Uint64(sf.offsets[8*slot:])
	size := int64(serRecHeaderLen+len(key)) + 8*int64(n)
	if n < 0 || off > uint64(sf.size) || size > sf.size-int64(off) {
		return nil, fmt.Errorf("%w: series record %d truncated: %d bytes at offset %d of %d", ErrCorrupt, slot, size, off, sf.size)
	}
	// A record is read whole into a pooled buffer: every byte of it is
	// overwritten or the read fails, so a reused one needs no zeroing.
	bp, _ := sf.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer sf.bufs.Put(bp)
	if int64(cap(*bp)) < size {
		*bp = make([]byte, size)
	}
	buf := (*bp)[:size]
	if _, err := sf.r.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("%w: reading series record %d: %v", ErrCorrupt, slot, err)
	}
	body := buf[serRecHeaderLen:]
	if int(binary.LittleEndian.Uint16(buf[0:2])) != len(key) || !bytes.Equal(body[:len(key)], key) ||
		int64(binary.LittleEndian.Uint32(buf[2:6])) != int64(n) {
		return nil, fmt.Errorf("%w: series record %d was stored under another key or length", ErrCorrupt, slot)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[6:10]) {
		return nil, fmt.Errorf("%w: series record %d CRC mismatch", ErrCorrupt, slot)
	}
	values := make([]float64, n)
	for i, raw := 0, body[len(key):]; i < n; i++ {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return values, nil
}
