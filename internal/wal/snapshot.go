package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapTmp    = ".snap.tmp"
)

// snapName formats a snapshot file name from the log sequence it covers.
func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// WriteSnapshot atomically writes a snapshot covering every log record up
// to and including seq: write supplies the body, which lands under a
// temporary name, is fsynced, and is renamed into place (with a directory
// sync), so a crash leaves either the previous snapshot or the new one —
// never a partial file under the real name.
func WriteSnapshot(dir string, seq uint64, write func(w io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := filepath.Join(dir, snapName(seq)+snapTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

// Snapshots lists the snapshot sequences present in dir, ascending.
func Snapshots(dir string) ([]uint64, error) {
	return listSeqFiles(dir, snapPrefix, snapSuffix)
}

// OpenLatestSnapshot opens the highest-sequence snapshot in dir,
// reporting the sequence it covers. ok is false when dir holds no
// snapshot. The file can be read more than once by seeking it back to 0.
func OpenLatestSnapshot(dir string) (f *os.File, seq uint64, ok bool, err error) {
	seqs, err := Snapshots(dir)
	if err != nil || len(seqs) == 0 {
		return nil, 0, false, err
	}
	seq = seqs[len(seqs)-1]
	if f, err = os.Open(filepath.Join(dir, snapName(seq))); err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	return f, seq, true, nil
}

// RemoveSnapshotsBefore deletes snapshots covering sequences strictly
// below seq — retention after a newer snapshot has landed.
func RemoveSnapshotsBefore(dir string, seq uint64) error {
	seqs, err := Snapshots(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, s := range seqs {
		if s >= seq {
			break
		}
		if err := os.Remove(filepath.Join(dir, snapName(s))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}
