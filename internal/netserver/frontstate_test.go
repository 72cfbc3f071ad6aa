package netserver

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/wal"
)

// TestFrontStateCrashReplay covers the log-replay half of the front
// state: mutations logged but never snapshotted (the process died before
// CloseWith) are rebuilt record by record.
func TestFrontStateCrashReplay(t *testing.T) {
	dir := t.TempDir()
	f, m, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("fresh dir returned map %v", m)
	}
	f.setForwarded(1, "owner-a:1", func() map[pathtree.PeerID]string { return nil })
	f.setForwarded(2, "owner-b:2", func() map[pathtree.PeerID]string { return nil })
	f.setForwarded(1, "owner-c:3", func() map[pathtree.PeerID]string { return nil }) // overwrite wins
	f.setForwarded(9, "owner-d:4", func() map[pathtree.PeerID]string { return nil })
	f.delForwarded(9, func() map[pathtree.PeerID]string { return nil })
	if err := f.Close(); err != nil { // crash path: no snapshot
		t.Fatal(err)
	}

	_, m2, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[pathtree.PeerID]string{1: "owner-c:3", 2: "owner-b:2"}
	if len(m2) != len(want) || m2[1] != want[1] || m2[2] != want[2] {
		t.Fatalf("replayed map %v, want %v", m2, want)
	}
}

// TestFrontStateCloseWithSnapshotTruncates covers the graceful half: the
// final snapshot supersedes the log and the next open replays nothing.
func TestFrontStateCloseWithSnapshotTruncates(t *testing.T) {
	dir := t.TempDir()
	f, _, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.setForwarded(5, "owner:5", func() map[pathtree.PeerID]string { return nil })
	if err := f.CloseWith(map[pathtree.PeerID]string{5: "owner:5"}); err != nil {
		t.Fatal(err)
	}
	f2, m, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if len(m) != 1 || m[5] != "owner:5" {
		t.Fatalf("map after CloseWith %v", m)
	}
}

// TestFrontStateRejectsCorruptRecord pins the decoder's strictness: a
// well-framed WAL record with a malformed front-state body fails the
// open loudly instead of silently corrupting the ownership map.
func TestFrontStateRejectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenSharded(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(0, []byte{99, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, _, err := openFrontState(dir); err == nil {
		t.Fatal("openFrontState accepted a corrupt record kind")
	}
	// A record too short to carry its header is equally fatal.
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	log, err = wal.OpenSharded(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, _, err := openFrontState(dir); err == nil {
		t.Fatal("openFrontState accepted a truncated record")
	}
	// Nil state (no DataDir) is inert.
	var nilState *frontState
	nilState.setForwarded(1, "x", nil)
	nilState.delForwarded(1, nil)
	if err := nilState.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nilState.CloseWith(nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrontStateAutoCompaction drives enough logged mutations past the
// compaction threshold that the front state must checkpoint and truncate
// its own log at runtime — the lifecycle guard for nodes that only ever
// die by crash and would otherwise grow the log without bound.
func TestFrontStateAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	f, _, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[pathtree.PeerID]string{}
	snap := func() map[pathtree.PeerID]string {
		m := make(map[pathtree.PeerID]string, len(live))
		for p, a := range live {
			m[p] = a
		}
		return m
	}
	const churn = frontCompactEvery + 200
	for i := 0; i < churn; i++ {
		p := pathtree.PeerID(i % 64)
		if i%5 == 4 {
			delete(live, p)
			f.delForwarded(p, snap)
			continue
		}
		live[p] = "owner:x"
		f.setForwarded(p, "owner:x", snap)
	}
	snaps, err := wal.Snapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatalf("no automatic front-state snapshot after %d mutations", churn)
	}
	// Replay after the newest snapshot must be short (only post-compaction
	// mutations), not the whole history.
	tail := 0
	if err := f.log.Replay(snaps[len(snaps)-1], func(uint64, []byte) error { tail++; return nil }); err != nil {
		t.Fatal(err)
	}
	if tail >= churn {
		t.Fatalf("compaction truncated nothing: %d-record tail", tail)
	}
	if err := f.Close(); err != nil { // crash path: recovery = snapshot + tail
		t.Fatal(err)
	}
	_, m, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(live) {
		t.Fatalf("recovered %d forwarded peers, want %d", len(m), len(live))
	}
	for p, a := range live {
		if m[p] != a {
			t.Fatalf("peer %d recovered as %q, want %q", p, m[p], a)
		}
	}
}

// dirFiles maps every file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestFrontStateRefusesOldFormat: a front-state directory as the previous
// format left it — a gob-encoded map for a snapshot, a single-stream log
// segment beside it — is refused with every file exactly as it was, and so
// is either half alone. The bytes are what that version wrote for one
// logged set of peer 5 to "owner:5" and a clean close.
func TestFrontStateRefusesOldFormat(t *testing.T) {
	const (
		oldSnap = "snap-00000000000000000001.snap"
		oldSeg  = "wal-00000000000000000001.seg"
	)
	gobMap := "\r\x7f\x04\x01\x02\xff\x80\x00\x01\x04\x01\f\x00\x00\r\xff\x80\x00\x01\n\aowner:5"
	seg := "\x00\x00\x00\x12\x00\x00\x00\x00\x00\x00\x00\x01\xe8\xcbY\x01\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\aowner:5"
	for _, tc := range []struct {
		name     string
		files    map[string]string
		wantName string
	}{
		{"snapshot and segment", map[string]string{oldSnap: gobMap, oldSeg: seg}, "snapshot 1"},
		{"snapshot alone", map[string]string{oldSnap: gobMap}, "snapshot 1"},
		{"segment alone", map[string]string{oldSeg: seg}, oldSeg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			f, m, err := openFrontState(dir)
			if err == nil {
				f.Close()
				t.Fatalf("an old-format directory opened, as %v", m)
			}
			if !strings.Contains(err.Error(), tc.wantName) {
				t.Fatalf("refusal %q does not name %s", err, tc.wantName)
			}
			if after := dirFiles(t, dir); !reflect.DeepEqual(tc.files, after) {
				t.Fatalf("the refusal changed the directory:\n before %q\n after  %q", tc.files, after)
			}
		})
	}
}

// TestFrontStateSnapshotDamage flips every bit and cuts every length of a
// snapshot: each damaged file is refused with the directory untouched —
// none decodes, to the same map or any other — and the intact file reads
// back as written.
func TestFrontStateSnapshotDamage(t *testing.T) {
	want := map[pathtree.PeerID]string{-3: "", 5: "owner:5", 7: "10.0.0.7:7471", 1 << 40: "owner-with-a-longer-name.example:9"}
	good := encodeFrontSnap(want)
	if got, err := decodeFrontSnap(good); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("intact snapshot read back as %v, %v", got, err)
	}
	if !reflect.DeepEqual(encodeFrontSnap(want), good) {
		t.Fatal("equal maps encode to different snapshots")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap-00000000000000000009.snap")
	refused := func(label string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		f, m, err := openFrontState(dir)
		if err == nil {
			f.Close()
			t.Fatalf("%s: opened, as %v", label, m)
		}
		if !strings.Contains(err.Error(), "snapshot 9") {
			t.Fatalf("%s: refusal %q does not name the snapshot", label, err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: the refusal changed the directory", label)
		}
	}
	for n := 0; n < len(good); n++ {
		refused(fmt.Sprintf("truncated to %d of %d bytes", n, len(good)), good[:n])
	}
	for i := 0; i < len(good)*8; i++ {
		flipped := append([]byte(nil), good...)
		flipped[i/8] ^= 1 << (i % 8)
		refused(fmt.Sprintf("bit %d of byte %d flipped", i%8, i/8), flipped)
	}
	refused("a byte appended", append(append([]byte(nil), good...), 0))
	if err := os.WriteFile(path, good, 0o666); err != nil {
		t.Fatal(err)
	}
	f, m, err := openFrontState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("recovered %v, want %v", m, want)
	}
}
