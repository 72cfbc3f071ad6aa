// Package wal implements the durability layer of a proxdisc management
// node: a segmented, CRC-framed write-ahead log of encoded operations
// (package op) plus atomically written on-disk snapshots.
//
// The log is the node's commit record. A write is acknowledged only after
// its record is on stable storage; concurrent appenders share fsyncs
// through group commit (one sync cycle at a time fsyncs everything
// appended before it began, advances the durable mark, and releases all
// the appenders it covered together), so the per-write cost of durability
// amortizes under load instead of serializing behind one fsync per
// operation. An appender only takes its sequences and copies its records
// into a buffer; one sync cycle at a time, its leader writes and fsyncs
// the cycle's records once, with no lock held, while appenders keep
// buffering the next, and releases all the cycle's waiters together
// (TestAppendBuffersWhileLeaderWrites, TestOneCycleReleasesEveryWaiter,
// TestShardedConcurrentAppendGroupCommit, TestMaxSyncDelayBatchesFsyncs).
// The commit tap — the feed of followers and subscriptions — sees a record
// only once it is durable.
//
// Records are framed as
//
//	length(4) sequence(8) crc32c(4) payload
//
// with the CRC (Castagnoli) covering sequence and payload. The log is one
// stream of segment files named by the sequence of their first record;
// snapshots make whole segments obsolete and TruncateBefore deletes them,
// so the log's disk footprint is bounded by the snapshot cadence. Records
// are written in sequence order, one sync cycle at a time, so a crash can
// only tear the tail of the final segment; OpenSharded detects the torn
// tail by CRC and truncates it and everything after it — a torn record was
// never acknowledged, and neither was any record after it, so dropping them
// loses nothing the caller promised (TestTornTailTruncated,
// TestRecoveryStopsAtFirstGlobalHole). Recovered state is therefore always
// a prefix of the committed order.
//
// There is one log, Sharded, whose sync cycle's leader is the only writer
// of its file (see sharded.go): one stream of segment files
// (wal-0-<seq>.seg) under one sequence, whatever the node's shard count. A
// directory holding a segment of an older log format — one stream per
// shard, or the single-stream log before it — is refused at open,
// untouched (TestShardedRefusesLegacySegments).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"proxdisc/internal/telemetry"
)

const (
	// segPrefix and segSuffix frame every segment's file name. The log's
	// segments are wal-0-<seq>.seg; any other file so framed — a
	// wal-<k>-<seq>.seg of the format that kept one stream per shard, or a
	// bare wal-<seq>.seg of the single-stream log before it — belongs to a
	// format this package no longer reads, and a directory holding one is
	// refused (see OpenSharded).
	segPrefix = "wal-"
	segSuffix = ".seg"
	// frameHeader is length(4) + sequence(8) + crc(4).
	frameHeader = 16
	// MaxRecordSize bounds one record's payload, protecting Replay from a
	// corrupt length field. It comfortably exceeds the largest encodable
	// op.
	MaxRecordSize = 1 << 20
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Sharded log.
type Options struct {
	// SegmentBytes is the size at which the active segment is rotated
	// (default 8 MiB).
	SegmentBytes int64
	// NoSync skips fsync on append (records are still flushed to the OS).
	// It trades crash durability for speed; tests and benchmarks that
	// model process crashes — not machine crashes — use it.
	NoSync bool
	// MaxSyncDelay, when positive, holds each group-commit fsync open for
	// up to this long (a sub-millisecond timer is the intended range) so
	// that appenders arriving during the window share the sync. Under
	// light load this trades a bounded latency bump per write for far
	// fewer fsyncs; under heavy load the window simply widens the batch.
	// Zero preserves the fsync-immediately behaviour. Ignored with NoSync.
	MaxSyncDelay time.Duration
	// Telemetry, when set, exposes the log's counters and append-latency
	// histogram (the proxdisc_wal_* series) through the registry. Without
	// it the metrics are still collected — Metrics() reads them — just not
	// exported.
	Telemetry *telemetry.Registry
}

// Metrics reports a log's group-commit counters. SyncedRecords/Fsyncs is
// the average commit batch: how many records each disk sync covered.
type Metrics struct {
	// Fsyncs is the number of fsync syscalls issued (0 with NoSync).
	Fsyncs uint64
	// SyncedRecords is the number of records made durable by those
	// fsyncs.
	SyncedRecords uint64
}

// DurabilityStats is the operational surface of a durable node: where its
// checkpoints stand, how much log a restart would replay, and how the
// group commit is batching. Producers (the cluster) fill it; front ends
// carry it into status responses and logs.
type DurabilityStats struct {
	// SnapshotSeq is the covering sequence of the latest on-disk snapshot
	// (0 before the first checkpoint).
	SnapshotSeq uint64
	// TailRecords is the number of log records beyond that snapshot — the
	// tail a restart replays and the retention buffer followers catch up
	// from.
	TailRecords uint64
	// Head is the last committed sequence.
	Head uint64
	// LoadTime is how long the last open spent loading the checkpoint (0
	// when there was none to load).
	LoadTime time.Duration
	// ReplayTime is how long the last open spent replaying the tail.
	ReplayTime time.Duration
	// SerialRecords counts the tail records the last open applied one at
	// a time: the barriers between its shard-parallel stretches, plus the
	// whole tail again if it fell back to the serial road.
	SerialRecords uint64
	// Log carries the group-commit counters.
	Log Metrics
}

// listSeqFiles lists, ascending, the sequence numbers encoded in dir's
// file names carrying the given prefix and suffix — the shared naming
// scheme of log segments and snapshot files. A missing directory is an
// empty listing.
func listSeqFiles(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// noLimit is read's bound when every intact record is wanted.
const noLimit = ^uint64(0)

// errTorn reports a torn or corrupt record: bytes follow a segment's intact
// records that are not one.
var errTorn = errors.New("torn or corrupt record")

// scanSegment reads a segment's records in order, calling fn, when not nil,
// for each intact one, and stops at the end of the file, at an error from
// fn, or at the first torn or corrupt record, where it returns errTorn. It
// reports the offset at which the intact records end and the sequence of
// the last one (start-1 when there is none). rec is reused between calls.
func scanSegment(path string, start uint64, fn func(seq uint64, rec []byte) error) (validEnd int64, lastSeq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var (
		hdr  [frameHeader]byte
		rec  []byte
		off  int64
		want = start
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return off, want - 1, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return off, want - 1, errTorn
			}
			return 0, 0, fmt.Errorf("wal: segment %s offset %d: %w", filepath.Base(path), off, err)
		}
		size := binary.BigEndian.Uint32(hdr[:4])
		seq := binary.BigEndian.Uint64(hdr[4:12])
		crc := binary.BigEndian.Uint32(hdr[12:16])
		if size > MaxRecordSize || seq < want {
			return off, want - 1, errTorn
		}
		rec = slices.Grow(rec[:0], int(size))[:size]
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, want - 1, errTorn
			}
			return 0, 0, fmt.Errorf("wal: segment %s offset %d: %w", filepath.Base(path), off, err)
		}
		if crc32.Update(crc32.Checksum(hdr[4:12], crcTable), crcTable, rec) != crc {
			return off, want - 1, errTorn
		}
		if fn != nil {
			if err := fn(seq, rec); err != nil {
				return off, want - 1, err
			}
		}
		off += frameHeader + int64(size)
		want = seq + 1
	}
}

// syncDir fsyncs a directory so file creations, renames, and deletions in
// it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
