package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
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
	ckptVer    = "v2"
)

// Recovery is the outcome of scanning a data directory on Open: the state
// a coordinator needs to resume, plus counters describing what damage was
// tolerated along the way.
type Recovery struct {
	// Snapshot is the newest valid checkpoint, nil when none exists (clean
	// start). CheckpointLSN is the last WAL record it covers.
	Snapshot      *core.Snapshot
	CheckpointLSN uint64

	// Tail holds the journaled samples newer than the checkpoint, in LSN
	// order; replaying them into the restored controller reconstructs the
	// in-progress epoch state.
	Tail []trace.Sample

	// Damage tolerated: checkpoints skipped for CRC/JSON corruption,
	// mid-segment WAL lines skipped for CRC/decode corruption — a report
	// line is one, however many samples it lost — and bytes truncated from
	// a torn WAL tail.
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
// at, to buf: the header line "wiscape-checkpoint v2 <lsn> <sum> <crc32hex>\n",
// then the core.WriteSnapshot JSON the CRC covers. It is the one spelling of
// a snapshot at a Mark — a checkpoint file holds these bytes, and a
// checkpoint line holds them stuffed. On an error buf comes back unextended.
func AppendCheckpoint(buf []byte, at Mark, snap core.Snapshot) ([]byte, error) {
	start := len(buf)
	buf = fmt.Appendf(buf, "%s %s %d %d 00000000\n", ckptMagic, ckptVer, at.LSN, at.Sum) // the CRC, once the body exists
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
// returns the snapshot and the Mark it covers: recovery and a replica taking
// a bootstrap off the wire both decide through it. A v1 header, from before
// checkpoints carried a sum, reads as sum 0, which the chain through its LSN
// is not but by chance: replicas of such a log get a snapshot.
func ParseCheckpoint(data []byte) (core.Snapshot, Mark, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return core.Snapshot{}, Mark{}, fmt.Errorf("missing header")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) == 4 && fields[1] == "v1" {
		fields = []string{fields[0], ckptVer, fields[2], "0", fields[3]}
	}
	if len(fields) != 5 || fields[0] != ckptMagic || fields[1] != ckptVer {
		return core.Snapshot{}, Mark{}, fmt.Errorf("bad header %q", string(data[:nl]))
	}
	lsn, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return core.Snapshot{}, Mark{}, fmt.Errorf("bad lsn: %w", err)
	}
	sum, err := strconv.ParseUint(fields[3], 10, 32)
	if err != nil {
		return core.Snapshot{}, Mark{}, fmt.Errorf("bad sum: %w", err)
	}
	wantCRC, err := strconv.ParseUint(fields[4], 16, 32)
	if err != nil {
		return core.Snapshot{}, Mark{}, fmt.Errorf("bad crc: %w", err)
	}
	body := data[nl+1:]
	if got := crc32.ChecksumIEEE(body); got != uint32(wantCRC) {
		return core.Snapshot{}, Mark{}, fmt.Errorf("crc mismatch: header %08x, body %08x", wantCRC, got)
	}
	snap, err := core.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		return core.Snapshot{}, Mark{}, err
	}
	return snap, Mark{lsn, uint32(sum)}, nil
}

// CheckpointLead opens a checkpoint line. Like reportLead it is a byte no
// UTF-8 text opens with, and none of the WAL lines' leads, so a stream
// may carry checkpoint lines among WAL lines.
const CheckpointLead = 0xC1

// AppendCheckpointLine appends the checkpoint of snap at at as one line —
// CheckpointLead, AppendCheckpoint's bytes stuffed as a binary line's body
// is, '\n' — a snapshot's spelling on the replication stream. On an error buf
// comes back unextended.
func AppendCheckpointLine(buf []byte, at Mark, snap core.Snapshot) ([]byte, error) {
	start := len(buf)
	buf, err := AppendCheckpoint(append(buf, CheckpointLead), at, snap)
	if err != nil {
		return buf[:start], err
	}
	return append(trace.Stuff(buf, start+1), '\n'), nil
}

// ParseCheckpointLine is ParseCheckpoint for a checkpoint line, and takes
// only the line AppendCheckpointLine writes for what it reads: like the
// binary record decoder, it is canonical.
func ParseCheckpointLine(line []byte) (core.Snapshot, Mark, error) {
	if len(line) < 2 {
		return core.Snapshot{}, Mark{}, errors.New("not a checkpoint line")
	}
	ckpt, _ := trace.Unstuff(nil, line[1:len(line)-1]) // a bad escape is another spelling, refused below
	snap, at, err := ParseCheckpoint(ckpt)
	if err != nil {
		return core.Snapshot{}, Mark{}, err
	}
	if again, err := AppendCheckpointLine(nil, at, snap); err != nil || !bytes.Equal(again, line) {
		return core.Snapshot{}, Mark{}, errors.New("a checkpoint line not as AppendCheckpointLine spells it")
	}
	return snap, at, nil
}

// writeCheckpoint atomically persists data, the checkpoint covering lsn:
// written to a temp file, fsynced, and renamed into place.
func writeCheckpoint(dir string, lsn uint64, data []byte) error {
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
func readCheckpoint(path string) (core.Snapshot, Mark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Snapshot{}, Mark{}, err
	}
	return ParseCheckpoint(data)
}

// latestCheckpoint is the one chooser of "the newest valid checkpoint", for
// Open: it returns that checkpoint (nil when none validates) and how many
// newer ones did not. Open runs it before this store writes or retires any
// checkpoint, so one listing holds throughout: a checkpoint that cannot be
// read, a name that points nowhere (a dangling link) included, is corrupt.
func (st *Store) latestCheckpoint() (*core.Snapshot, Mark, int, error) {
	cks, err := listCheckpoints(st.dir)
	if err != nil {
		return nil, Mark{}, 0, err
	}
	corrupt := 0
	for _, ck := range cks {
		snap, at, err := readCheckpoint(ck.path)
		if err == nil {
			return &snap, at, corrupt, nil
		}
		corrupt++
		slog.Warn("store: skipping corrupt checkpoint", "path", ck.path, "err", err)
	}
	return nil, Mark{}, corrupt, nil
}

// recover reads the data directory back into st.recovery and st.nextLSN: the
// checkpoint latestCheckpoint picks, then every retained WAL record, through
// the decoding read ReadBatch makes, on a cursor opened at the oldest
// segment's first LSN. No segment is active yet, so the cursor reads each one
// as sealed, and the rules are its own (see Cursor.NextLines): an invalid line
// it steps over is a corrupt record, and so is a partial line ending a sealed
// segment — except for the invalid or partial run that ends the newest
// segment, a torn append, which is truncated away instead. Records above the
// checkpoint become the tail, and the next LSN is one past the last record
// read or the checkpoint, whichever is later. The sum through it chains from
// the checkpoint's Mark, over the lines read again past it.
func (st *Store) recover() error {
	rec := &st.recovery
	var err error
	var ckpt Mark
	rec.Snapshot, ckpt, rec.CorruptCheckpoints, err = st.latestCheckpoint()
	if err != nil {
		return err
	}
	if rec.Snapshot != nil {
		st.marks = []Mark{ckpt}
	}
	rec.CheckpointLSN, st.nextLSN, st.sum = ckpt.LSN, ckpt.LSN+1, ckpt.Sum
	segs, err := listSegments(st.dir)
	if err != nil || len(segs) == 0 {
		return err
	}
	c := st.OpenCursor(segs[0].first)
	defer c.Close()
	var last uint64
	err = c.read(math.MaxInt, func(lsn uint64, smp *trace.Sample) {
		if lsn > rec.CheckpointLSN {
			rec.Tail = append(rec.Tail, *smp)
		}
		last = lsn
	})
	if err != nil {
		return fmt.Errorf("store: recovering: %w", err)
	}
	st.nextLSN = max(st.nextLSN, last+1)
	// The cursor stands in the newest segment, at its end.
	rec.CorruptRecords = c.bad
	if size := c.off + int64(c.w-c.r); c.end < size {
		rec.TruncatedBytes = size - c.end
		slog.Warn("store: truncating torn WAL tail", "path", c.f.Name(), "bytes", rec.TruncatedBytes)
		if err := os.Truncate(c.f.Name(), c.end); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	c.Seek(ckpt.LSN + 1)
	st.sum, _ = c.chain(ckpt.Sum, st.nextLSN-1)
	return nil
}

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

// ParseRecordLine validates one WAL line in full, in any form — frame, CRC
// and the record behind them — and appends the samples it journals to dst,
// returning them with the LSN of the first; the line holds LSNs first …
// first+len−1 of what was appended. It is the format's one validating
// decoder: recovery, ReadBatch and a replica taking lines off the replication
// stream decode through it, and checkLine, the log's record check, takes
// exactly the lines it takes. A caller that keeps dst decodes line after line
// into one slice; the samples share no memory with line, or with scratch,
// which a binary line is unstuffed into (a nil scratch: a buffer of its own).
// On a refusal dst comes back as it was.
func ParseRecordLine(dst []trace.Sample, line []byte, scratch *Scratch) (first uint64, samples []trace.Sample, ok bool) {
	if scratch == nil {
		scratch = new(Scratch)
	}
	return parseRecord(&scratch.body, dst, line)
}

// parseRecord is ParseRecordLine unstuffing into the caller's scratch.
func parseRecord(scratch *[]byte, dst []trace.Sample, line []byte) (uint64, []trace.Sample, bool) {
	if len(line) > 0 && (line[0] == sampleLead || line[0] == reportLead) {
		first, _, rest, ok := binaryLine(scratch, line)
		if !ok {
			return 0, dst, false
		}
		if line[0] == sampleLead {
			smp, ok := trace.ParseSampleBinary(rest)
			if !ok {
				return 0, dst, false
			}
			return first, append(dst, smp), true
		}
		_, samples, err := trace.ParseReportBinary(dst, rest, len(rest))
		if err != nil {
			return 0, dst, false
		}
		return first, samples, true
	}
	var wr walRecord
	if payload, ok := linePayload(line); !ok || json.Unmarshal(payload, &wr) != nil {
		return 0, dst, false
	}
	return wr.LSN, append(dst, wr.Sample), true
}

// ChainSum chains line into sum, the sum of the lines before it (see Mark):
// CRC-32C. A line ends with the IEEE CRC of its body, which makes the IEEE CRC
// of the whole line the same for lines of one length.
func ChainSum(sum uint32, line []byte) uint32 { return crc32.Update(sum, castagnoli, line) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkLine is the one record check: it reports whether ParseRecordLine
// takes line, and the LSNs the line holds, first through last. A binary
// line's frame, CRC and LSNs are binaryLine's, and its sample or report is
// validated in place, without decoding it: no allocation, once *scratch holds
// the body. A JSON line, which only older segments hold, is decoded, as
// ParseRecordLine decodes it. The cursor's scan and AppendAt go by it.
func checkLine(scratch *[]byte, line []byte) (first, last uint64, ok bool) {
	if len(line) > 0 && (line[0] == sampleLead || line[0] == reportLead) {
		first, last, rest, ok := binaryLine(scratch, line)
		if ok && line[0] == sampleLead {
			ok = trace.ValidSampleBinary(rest)
		} else if ok {
			_, ok = trace.ValidReportBinary(rest)
		}
		return first, last, ok
	}
	var wr walRecord
	if payload, ok := linePayload(line); !ok || json.Unmarshal(payload, &wr) != nil {
		return 0, 0, false
	}
	return wr.LSN, wr.LSN, true
}
