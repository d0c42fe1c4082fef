package store

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	ckptMagic  = "wiscape-checkpoint"
	ckptVer    = "v1"
)

// Recovery is the outcome of scanning a data directory on Open: the state
// a coordinator needs to resume, plus counters describing what damage was
// tolerated along the way.
type Recovery struct {
	// Snapshot is the newest valid checkpoint, nil when none exists (clean
	// start). CheckpointLSN is the last WAL record it covers.
	Snapshot      *core.Snapshot
	CheckpointLSN uint64

	// Tail holds the WAL records newer than the checkpoint, in append
	// order; replaying them into the restored controller reconstructs the
	// in-progress epoch state.
	Tail []trace.Sample

	// Damage tolerated: checkpoints skipped for CRC/JSON corruption,
	// mid-segment records skipped for CRC/JSON corruption, and bytes
	// truncated from a torn WAL tail.
	CorruptCheckpoints int
	CorruptRecords     int
	TruncatedBytes     int64
}

type fileRef struct {
	path string
	// first LSN for segments; covered LSN for checkpoints
	first uint64
	lsn   uint64
}

// listSegments returns the WAL segments sorted by first LSN ascending.
func listSegments(dir string) ([]fileRef, error) {
	return listNumbered(dir, segPrefix, segSuffix, true)
}

// listCheckpoints returns the checkpoints sorted by covered LSN descending
// (newest first).
func listCheckpoints(dir string) ([]fileRef, error) {
	return listNumbered(dir, ckptPrefix, ckptSuffix, false)
}

func listNumbered(dir, prefix, suffix string, asc bool) ([]fileRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var out []fileRef
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		out = append(out, fileRef{path: filepath.Join(dir, name), first: n, lsn: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if asc {
			return out[i].first < out[j].first
		}
		return out[i].first > out[j].first
	})
	return out, nil
}

// writeCheckpoint atomically persists a snapshot covering records up to
// lsn: the body is written to a temp file, fsynced, and renamed into
// place. The header line carries a CRC32 of the JSON body so recovery can
// reject torn or bit-rotted checkpoints.
func writeCheckpoint(dir string, lsn uint64, snap core.Snapshot) error {
	var body bytes.Buffer
	if err := core.WriteSnapshot(&body, snap); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%016d%s", ckptPrefix, lsn, ckptSuffix))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	header := fmt.Sprintf("%s %s %d %08x\n", ckptMagic, ckptVer, lsn, crc32.ChecksumIEEE(body.Bytes()))
	_, err = io.WriteString(f, header)
	if err == nil {
		_, err = f.Write(body.Bytes())
	}
	if err == nil {
		err = f.Sync()
	}
	// Close errors matter here — a failed close can mean the fsync'd bytes
	// never reached the disk — and must not be masked by a write error.
	err = errors.Join(err, f.Close())
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint validates and parses one checkpoint file.
func readCheckpoint(path string) (core.Snapshot, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Snapshot{}, 0, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return core.Snapshot{}, 0, fmt.Errorf("missing header")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 4 || fields[0] != ckptMagic || fields[1] != ckptVer {
		return core.Snapshot{}, 0, fmt.Errorf("bad header %q", string(data[:nl]))
	}
	lsn, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return core.Snapshot{}, 0, fmt.Errorf("bad lsn: %w", err)
	}
	wantCRC, err := strconv.ParseUint(fields[3], 16, 32)
	if err != nil {
		return core.Snapshot{}, 0, fmt.Errorf("bad crc: %w", err)
	}
	body := data[nl+1:]
	if got := crc32.ChecksumIEEE(body); got != uint32(wantCRC) {
		return core.Snapshot{}, 0, fmt.Errorf("crc mismatch: header %08x, body %08x", wantCRC, got)
	}
	snap, err := core.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		return core.Snapshot{}, 0, err
	}
	return snap, lsn, nil
}

// recoverDir scans a data directory: it picks the newest checkpoint that
// validates (skipping corrupt ones), then replays every WAL segment,
// collecting records newer than the checkpoint. Corrupt records followed
// by valid ones are skipped; a corrupt or partial run extending to the end
// of the newest segment is a torn tail and is truncated away. Returns the
// recovery outcome and the next LSN to assign.
func recoverDir(dir string, opts Options) (Recovery, uint64, error) {
	var rec Recovery
	nextLSN := uint64(1)

	cks, err := listCheckpoints(dir)
	if err != nil {
		return rec, 0, err
	}
	for _, ck := range cks {
		snap, lsn, err := readCheckpoint(ck.path)
		if err != nil {
			rec.CorruptCheckpoints++
			opts.Logf("store: skipping corrupt checkpoint %s: %v", ck.path, err)
			continue
		}
		rec.Snapshot = &snap
		rec.CheckpointLSN = lsn
		if lsn+1 > nextLSN {
			nextLSN = lsn + 1
		}
		break
	}

	segs, err := listSegments(dir)
	if err != nil {
		return rec, 0, err
	}
	for i, sg := range segs {
		last := i == len(segs)-1
		if err := scanSegment(sg.path, last, &rec, &nextLSN, opts); err != nil {
			return rec, 0, err
		}
	}
	return rec, nextLSN, nil
}

// maxWALLineBytes caps one WAL line during recovery. A legitimate record
// is a few hundred bytes; anything past this is corruption, and reading
// it through an unbounded ReadBytes would let one damaged (or hostile)
// segment balloon memory before the CRC even gets a look.
const maxWALLineBytes = 1 << 20

// scanSegment replays one WAL segment into rec. For the last (active at
// crash time) segment, invalid data extending to EOF is truncated so the
// next crash-free run starts from a clean journal.
func scanSegment(path string, last bool, rec *Recovery, nextLSN *uint64, opts Options) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var offset, goodEnd int64 // goodEnd: file offset just past the last valid record
	pendingBad := 0           // invalid lines seen since the last valid record
	for {
		line, consumed, complete := readLineCapped(br, maxWALLineBytes)
		offset += consumed
		if complete {
			if smp, lsn, ok := ParseRecordLine(line); ok {
				rec.CorruptRecords += pendingBad
				pendingBad = 0
				goodEnd = offset
				if lsn+1 > *nextLSN {
					*nextLSN = lsn + 1
				}
				if lsn > rec.CheckpointLSN {
					rec.Tail = append(rec.Tail, smp)
				}
			} else {
				// Includes over-cap lines (line == nil): corrupt either way.
				pendingBad++
			}
			continue
		}
		if consumed > 0 {
			pendingBad++ // partial line at EOF: torn write
		}
		break
	}
	size := offset
	cerr := f.Close()
	if cerr != nil {
		cerr = fmt.Errorf("store: closing segment: %w", cerr)
	}
	if last && goodEnd < size {
		// Torn tail: drop everything past the last valid record.
		rec.TruncatedBytes += size - goodEnd
		opts.Logf("store: truncating torn WAL tail of %s: %d bytes", path, size-goodEnd)
		if err := os.Truncate(path, goodEnd); err != nil {
			return errors.Join(fmt.Errorf("store: truncating torn tail: %w", err), cerr)
		}
	} else {
		rec.CorruptRecords += pendingBad
	}
	return cerr
}

// readLineCapped reads one '\n'-terminated line of at most limit bytes,
// without ever buffering more than limit (+ one bufio chunk). It returns
// the line including its delimiter (nil when the line exceeded the cap
// but was still consumed through its delimiter), the number of bytes
// consumed from br, and whether a delimiter was found. complete=false
// means EOF or a read error ended the line early.
func readLineCapped(br *bufio.Reader, limit int) (line []byte, consumed int64, complete bool) {
	overflow := false
	for {
		chunk, err := br.ReadSlice('\n')
		consumed += int64(len(chunk))
		if !overflow {
			line = append(line, chunk...)
			if len(line) > limit {
				overflow = true
				line = nil
			}
		}
		switch {
		case err == nil:
			return line, consumed, true
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		default:
			return line, consumed, false
		}
	}
}

// linePayload checks the frame of one WAL line — "crc32hex payload\n", no
// longer than maxWALLineBytes, the CRC the payload's own — and returns the
// payload.
func linePayload(line []byte) ([]byte, bool) {
	// 8 hex digits + ' ' + at least "{}" + '\n'.
	if len(line) < 12 || len(line) > maxWALLineBytes || line[8] != ' ' || line[len(line)-1] != '\n' {
		return nil, false
	}
	var crcBytes [4]byte
	if _, err := hex.Decode(crcBytes[:], line[:8]); err != nil {
		return nil, false
	}
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	payload := line[9 : len(line)-1]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// ParseRecordLine validates one WAL line in full — frame, CRC and the JSON
// record behind them — and returns the sample and the LSN it journals. It is
// the format's one validating decoder: recovery, Cursor.Next and a replica
// taking lines off the replication stream all decide through it what a
// record is. The sample shares no memory with line.
func ParseRecordLine(line []byte) (trace.Sample, uint64, bool) {
	payload, ok := linePayload(line)
	if !ok {
		return trace.Sample{}, 0, false
	}
	if smp, lsn, ok := parseCanonicalRecord(payload); ok {
		return smp, lsn, true
	}
	var wr walRecord
	if err := json.Unmarshal(payload, &wr); err != nil {
		return trace.Sample{}, 0, false
	}
	return wr.Sample, wr.LSN, true
}

// parseCanonicalRecord reads a payload spelled the way appendRecordLine
// spells it — `{"lsn":N,"sample":` canonical sample `}`, N without a leading
// zero — to what json.Unmarshal would make of it, or declines it.
func parseCanonicalRecord(payload []byte) (smp trace.Sample, lsn uint64, ok bool) {
	c := trace.Canon{B: payload}
	c.Lit(lsnKey)
	n := 0
	for n < len(c.B) && '0' <= c.B[n] && c.B[n] <= '9' {
		n++
	}
	if c.Declined || n == 0 || (n > 1 && c.B[0] == '0') {
		return smp, 0, false
	}
	lsn, err := strconv.ParseUint(string(c.B[:n]), 10, 64) // encoding/json's call: over 64 bits is refused
	if err != nil {
		return smp, 0, false
	}
	c.B = c.B[n:]
	c.Lit(sampleKey)
	trace.ParseSampleJSON(&c, &smp, nil)
	c.Lit("}")
	return smp, lsn, !c.Declined && len(c.B) == 0
}
