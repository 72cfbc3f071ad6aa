package netserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/wal"
)

// frontState is the front end's own durable state: the forwarded-peer
// ownership map (which cluster node holds each peer whose join this node
// proxied). It rides the same WAL-plus-snapshot machinery the backend
// uses — every set/delete is a CRC-framed record of a one-stream wal.Sharded
// log, Close writes a snapshot and truncates the log, and openFrontState
// recovers snapshot-plus-tail — so a restarted node keeps proxying
// follow-ups instead of answering "unknown peer" for every forwarded
// registration. The snapshot is a compacted log, like the backend's
// checkpoint: the records that rebuild the map, and nothing else.
//
// A nil *frontState (no Config.DataDir) is valid and does nothing: the
// map then lives only in memory, exactly the pre-durability behaviour.
type frontState struct {
	dir string
	log *wal.Sharded

	// appends counts logged mutations since open; every frontCompactEvery
	// of them the map is checkpointed and the log truncated, bounding the
	// state's disk footprint on long-running nodes that never Close
	// cleanly (a crash-kill is exactly the lifecycle this state exists
	// for).
	appends   atomic.Int64
	compactMu sync.Mutex // one compaction at a time
}

// Forwarded-map record kinds.
const (
	frontSet byte = 1
	frontDel byte = 2
)

// frontCompactEvery is the logged-mutation count between automatic
// front-state checkpoints.
const frontCompactEvery = 1024

// encodeFrontRec frames one forwarded-map mutation: kind(1) peer(8)
// addrLen(2) addr.
func encodeFrontRec(kind byte, p pathtree.PeerID, addr string) []byte {
	b := make([]byte, 0, 11+len(addr))
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, uint64(p))
	b = binary.BigEndian.AppendUint16(b, uint16(len(addr)))
	return append(b, addr...)
}

// decodeFrontRec reads the record at the front of b and returns the bytes
// that follow it: none for a log record, the next record in a snapshot.
func decodeFrontRec(b []byte) (kind byte, p pathtree.PeerID, addr string, rest []byte, err error) {
	if len(b) < 11 {
		return 0, 0, "", nil, fmt.Errorf("netserver: truncated front-state record (%d bytes)", len(b))
	}
	n := 11 + int(binary.BigEndian.Uint16(b[9:11]))
	if len(b) < n {
		return 0, 0, "", nil, fmt.Errorf("netserver: front-state record of %d bytes cut at %d", n, len(b))
	}
	return b[0], pathtree.PeerID(binary.BigEndian.Uint64(b[1:9])), string(b[11:n]), b[n:], nil
}

// A front-state snapshot is
//
//	magic(8) count(8) record... crc32c(4)
//
// with big-endian integers: count frontSet records in encodeFrontRec's
// layout, ascending by peer ID (so equal maps are equal files), and a
// checksum over every byte before it. It is good only if the magic, the
// checksum, the count and the file's length all agree.
var frontSnapMagic = [8]byte{'p', 'x', 'd', 'f', 'r', 'o', 'n', 't'}

var frontSnapCRC = crc32.MakeTable(crc32.Castagnoli)

// A snapshot that does not begin with the magic is garbage, or the
// gob-encoded map that preceded this layout, which no reader exists for any
// more; one that does and fails a check is damaged.
var (
	errFrontSnapFormat  = errors.New("netserver: not a front-state snapshot (unknown or pre-record-stream format)")
	errFrontSnapCorrupt = errors.New("netserver: corrupt front-state snapshot")
)

// encodeFrontSnap renders m as a snapshot.
func encodeFrontSnap(m map[pathtree.PeerID]string) []byte {
	peers := make([]pathtree.PeerID, 0, len(m))
	for p := range m {
		peers = append(peers, p)
	}
	slices.Sort(peers)
	b := append([]byte(nil), frontSnapMagic[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(peers)))
	for _, p := range peers {
		b = append(b, encodeFrontRec(frontSet, p, m[p])...)
	}
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, frontSnapCRC))
}

// decodeFrontSnap reads a whole snapshot into a map, or fails: it never
// returns part of one.
func decodeFrontSnap(b []byte) (map[pathtree.PeerID]string, error) {
	if n := min(len(b), len(frontSnapMagic)); !bytes.Equal(b[:n], frontSnapMagic[:n]) {
		return nil, errFrontSnapFormat
	}
	if len(b) < 20 {
		return nil, io.ErrUnexpectedEOF
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, frontSnapCRC) != sum {
		return nil, errFrontSnapCorrupt
	}
	m := make(map[pathtree.PeerID]string)
	recs := body[16:]
	for count := binary.BigEndian.Uint64(body[8:16]); count > 0; count-- {
		kind, p, addr, rest, err := decodeFrontRec(recs)
		if err != nil || kind != frontSet {
			return nil, errFrontSnapCorrupt
		}
		m[p], recs = addr, rest
	}
	if len(recs) != 0 {
		return nil, errFrontSnapCorrupt
	}
	return m, nil
}

// writeFrontSnap lands m as the snapshot covering seq and retires the
// older snapshots and the log segments beneath it.
func (f *frontState) writeFrontSnap(seq uint64, m map[pathtree.PeerID]string) error {
	if err := wal.WriteSnapshot(f.dir, seq, func(w io.Writer) error {
		_, err := w.Write(encodeFrontSnap(m))
		return err
	}); err != nil {
		return err
	}
	_ = wal.RemoveSnapshotsBefore(f.dir, seq)
	_ = f.log.TruncateBefore(seq + 1)
	return nil
}

// openFrontState recovers the forwarded-peer map from dir ("" disables
// persistence and returns a nil state with an empty map). The snapshot is
// read before the log is opened and must be good to its last byte: a
// damaged one, one in the gob format that preceded this one, or a
// directory still holding the old single-stream log's segments fails the
// open with nothing on disk touched.
func openFrontState(dir string) (*frontState, map[pathtree.PeerID]string, error) {
	if dir == "" {
		return nil, nil, nil
	}
	m := make(map[pathtree.PeerID]string)
	var snapSeq uint64
	if r, seq, ok, err := wal.OpenLatestSnapshot(dir); err != nil {
		return nil, nil, fmt.Errorf("netserver: front state: %w", err)
	} else if ok {
		b, err := io.ReadAll(r)
		r.Close()
		if err == nil {
			m, err = decodeFrontSnap(b)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("netserver: front-state snapshot %d: %w", seq, err)
		}
		snapSeq = seq
	}
	log, err := wal.OpenSharded(dir, 1, wal.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("netserver: front state: %w", err)
	}
	log.EnsureSeq(snapSeq)
	if err := log.Replay(snapSeq, func(seq uint64, rec []byte) error {
		kind, p, addr, rest, err := decodeFrontRec(rec)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("netserver: front-state record carries %d extra bytes", len(rest))
		}
		switch kind {
		case frontSet:
			m[p] = addr
		case frontDel:
			delete(m, p)
		default:
			return fmt.Errorf("netserver: front-state record kind %d", kind)
		}
		return nil
	}); err != nil {
		log.Close()
		return nil, nil, err
	}
	if len(m) == 0 {
		m = nil // the lazy-allocation convention of NetServer.fwdPeers
	}
	return &frontState{dir: dir, log: log}, m, nil
}

// setForwarded logs a forwarded-peer ownership change. Best effort: a
// failed append degrades this entry to in-memory-only (the pre-durability
// behaviour) rather than failing the join that triggered it. snap
// supplies a copy of the live map for the periodic compaction.
func (f *frontState) setForwarded(p pathtree.PeerID, addr string, snap func() map[pathtree.PeerID]string) {
	if f == nil {
		return
	}
	_, _ = f.log.Append(0, encodeFrontRec(frontSet, p, addr))
	f.maybeCompact(snap)
}

// delForwarded logs a forwarded-peer retirement.
func (f *frontState) delForwarded(p pathtree.PeerID, snap func() map[pathtree.PeerID]string) {
	if f == nil {
		return
	}
	_, _ = f.log.Append(0, encodeFrontRec(frontDel, p, ""))
	f.maybeCompact(snap)
}

// maybeCompact checkpoints the map and truncates the log every
// frontCompactEvery logged mutations. The sequence is captured before the
// map is copied, so the snapshot covers at least every record up to it;
// mutations landing during the copy may additionally be included, and
// replaying the tail over them converges because set/delete are
// idempotent overwrites (the same argument the cluster checkpoint makes).
func (f *frontState) maybeCompact(snap func() map[pathtree.PeerID]string) {
	if f.appends.Add(1)%frontCompactEvery != 0 {
		return
	}
	f.compactMu.Lock()
	defer f.compactMu.Unlock()
	seq := f.log.LastSeq()
	_ = f.writeFrontSnap(seq, snap()) // best effort: the log still holds everything
}

// Close without a final snapshot (error paths).
func (f *frontState) Close() error {
	if f == nil {
		return nil
	}
	return f.log.Close()
}

// CloseWith snapshots the final map, truncates the log beneath it, and
// closes — so the next open replays an empty tail.
func (f *frontState) CloseWith(final map[pathtree.PeerID]string) error {
	if f == nil {
		return nil
	}
	err := f.writeFrontSnap(f.log.LastSeq(), final)
	if cerr := f.log.Close(); err == nil {
		err = cerr
	}
	return err
}
