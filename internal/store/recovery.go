package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	// mid-segment records skipped for CRC/decode corruption, and bytes
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

// AppendCheckpoint appends the checkpoint of snap, covering records through
// lsn, to buf: the header line "wiscape-checkpoint v1 <lsn> <crc32hex>\n",
// then the core.WriteSnapshot JSON the CRC covers. It is the one spelling of
// a snapshot at an LSN — a checkpoint file holds these bytes, and a
// checkpoint line holds them stuffed. On an error buf comes back unextended.
func AppendCheckpoint(buf []byte, lsn uint64, snap core.Snapshot) ([]byte, error) {
	start := len(buf)
	buf = fmt.Appendf(buf, "%s %s %d 00000000\n", ckptMagic, ckptVer, lsn) // the CRC, once the body exists
	head := len(buf)
	body := bytes.NewBuffer(buf)
	if err := core.WriteSnapshot(body, snap); err != nil {
		return buf[:start], err
	}
	buf = body.Bytes()
	copy(buf[head-9:], fmt.Sprintf("%08x", crc32.ChecksumIEEE(buf[head:])))
	return buf, nil
}

// ParseCheckpoint validates one checkpoint — header, CRC, snapshot JSON — and
// returns the snapshot and the LSN it covers: recovery, LatestCheckpoint and
// a replica taking a bootstrap off the wire all decide through it.
func ParseCheckpoint(data []byte) (core.Snapshot, uint64, error) {
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

// CheckpointLead opens a checkpoint line. Like binaryLead it is a byte no
// UTF-8 text opens with, and neither binaryLead nor a hex digit, so a stream
// may carry checkpoint lines among WAL lines.
const CheckpointLead = 0xC1

// AppendCheckpointLine appends the checkpoint of snap at lsn as one line —
// CheckpointLead, AppendCheckpoint's bytes stuffed as a binary line's body
// is, '\n' — a snapshot's spelling on the replication stream. On an error buf
// comes back unextended.
func AppendCheckpointLine(buf []byte, lsn uint64, snap core.Snapshot) ([]byte, error) {
	start := len(buf)
	buf, err := AppendCheckpoint(append(buf, CheckpointLead), lsn, snap)
	if err != nil {
		return buf[:start], err
	}
	return append(trace.Stuff(buf, start+1), '\n'), nil
}

// ParseCheckpointLine is ParseCheckpoint for a checkpoint line, and takes
// only the line AppendCheckpointLine writes for what it reads: like the
// binary record decoder, it is canonical.
func ParseCheckpointLine(line []byte) (core.Snapshot, uint64, error) {
	if len(line) < 2 {
		return core.Snapshot{}, 0, errors.New("not a checkpoint line")
	}
	ckpt, _ := trace.Unstuff(nil, line[1:len(line)-1]) // a bad escape is another spelling, refused below
	snap, lsn, err := ParseCheckpoint(ckpt)
	if err != nil {
		return core.Snapshot{}, 0, err
	}
	if again, err := AppendCheckpointLine(nil, lsn, snap); err != nil || !bytes.Equal(again, line) {
		return core.Snapshot{}, 0, errors.New("a checkpoint line not as AppendCheckpointLine spells it")
	}
	return snap, lsn, nil
}

// writeCheckpoint atomically persists the checkpoint of snap covering lsn:
// written to a temp file, fsynced, and renamed into place.
func writeCheckpoint(dir string, lsn uint64, snap core.Snapshot) error {
	data, err := AppendCheckpoint(nil, lsn, snap)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%016d%s", ckptPrefix, lsn, ckptSuffix))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	_, err = f.Write(data)
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

// readCheckpoint reads and parses one checkpoint file.
func readCheckpoint(path string) (core.Snapshot, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Snapshot{}, 0, err
	}
	return ParseCheckpoint(data)
}

// latestCheckpoint is the one chooser of "the newest valid checkpoint", for
// Open and LatestCheckpoint alike: it returns that checkpoint (nil when none
// validates) and how many newer ones did not. A checkpoint that vanishes
// between listing and reading was deleted by retention, so a newer one has
// been written since and the listing is taken again — but only if it changed:
// a name that points nowhere (a dangling link) is corrupt like any other.
func (st *Store) latestCheckpoint() (*core.Snapshot, uint64, int, error) {
	cks, err := listCheckpoints(st.dir)
	if err != nil {
		return nil, 0, 0, err
	}
	corrupt := 0
	for i := 0; i < len(cks); i++ {
		snap, lsn, err := readCheckpoint(cks[i].path)
		if err == nil {
			return &snap, lsn, corrupt, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			now, lerr := listCheckpoints(st.dir)
			if lerr != nil {
				return nil, 0, 0, lerr
			}
			if !slices.Equal(now, cks) {
				cks, corrupt, i = now, 0, -1
				continue
			}
		}
		corrupt++
		st.opts.Logf("store: skipping corrupt checkpoint %s: %v", cks[i].path, err)
	}
	return nil, 0, corrupt, nil
}

// recover reads the data directory back into st.recovery and st.nextLSN: the
// checkpoint latestCheckpoint picks, then every retained WAL record, through
// a cursor opened at the oldest segment's first LSN and drained. No segment is
// active yet, so the cursor reads each one as sealed, and the rules are its
// own (see Cursor): an invalid line it steps over is a corrupt record, and so
// is a partial line ending a sealed segment — except for the invalid or
// partial run that ends the newest segment, a torn append, which is truncated
// away instead. Records above the checkpoint become the tail, and the next LSN
// is one past the last record read or the checkpoint, whichever is later.
func (st *Store) recover() error {
	rec := &st.recovery
	var err error
	rec.Snapshot, rec.CheckpointLSN, rec.CorruptCheckpoints, err = st.latestCheckpoint()
	if err != nil {
		return err
	}
	st.nextLSN = rec.CheckpointLSN + 1
	segs, err := listSegments(st.dir)
	if err != nil || len(segs) == 0 {
		return err
	}
	c := st.OpenCursor(segs[0].first)
	defer c.Close()
	for {
		es, err := c.Next(0)
		if err != nil {
			return fmt.Errorf("store: recovering: %w", err)
		}
		if len(es) == 0 {
			break
		}
		for _, e := range es {
			if e.LSN > rec.CheckpointLSN {
				rec.Tail = append(rec.Tail, e.Sample)
			}
		}
		st.nextLSN = max(st.nextLSN, es[len(es)-1].LSN+1)
	}
	// The cursor stands in the newest segment, at its end.
	rec.CorruptRecords = c.bad
	if size := c.off + int64(c.w-c.r); c.end < size {
		rec.TruncatedBytes = size - c.end
		st.opts.Logf("store: truncating torn WAL tail of %s: %d bytes", c.f.Name(), rec.TruncatedBytes)
		if err := os.Truncate(c.f.Name(), c.end); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	return nil
}

// MaxLineBytes caps one WAL line, its '\n' included. A legitimate record is
// a few hundred bytes; anything past this is corruption, and a reader that
// buffered it whole would let one damaged (or hostile) segment — or peer —
// balloon memory before the CRC even gets a look.
const MaxLineBytes = 1 << 20

// linePayload checks the frame of one JSON-form WAL line — "crc32hex
// payload\n", no longer than MaxLineBytes, the CRC the payload's own — and
// returns the payload.
func linePayload(line []byte) ([]byte, bool) {
	// 8 hex digits + ' ' + at least "{}" + '\n'.
	if len(line) < 12 || len(line) > MaxLineBytes || line[8] != ' ' || line[len(line)-1] != '\n' {
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

// ParseRecordLine validates one WAL line in full, in either form — frame,
// CRC and the record behind them — and returns the sample and the LSN it
// journals. It is the format's one validating decoder: recovery, Cursor.Next
// and a replica taking lines off the replication stream all decide through it
// what a record is. The sample shares no memory with line.
func ParseRecordLine(line []byte) (trace.Sample, uint64, bool) {
	if len(line) > 0 && line[0] == binaryLead {
		var scratch [binaryScratch]byte
		lsn, body, ok := binaryRecord(scratch[:0], line)
		if !ok {
			return trace.Sample{}, 0, false
		}
		smp, ok := trace.ParseSampleBinary(body)
		return smp, lsn, ok
	}
	var wr walRecord
	if payload, ok := linePayload(line); !ok || json.Unmarshal(payload, &wr) != nil {
		return trace.Sample{}, 0, false
	}
	return wr.Sample, wr.LSN, true
}
