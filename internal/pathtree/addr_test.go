package pathtree

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"proxdisc/internal/codec"
	"proxdisc/internal/topology"
)

// nearEndpoints are addresses one step from the canonical IPv4 endpoint
// form a record holds inline: each must stay text.
var nearEndpoints = []string{
	"01.2.3.4:5", "1.2.3.4:05", "1.2.3.4", "[::1]:5", "peer-1:7000",
	"256.1.2.3:4", "1.2.3.4:65536", "1.2.3.4:5 ", "1.2.3:4", "1.2.3.4.5:6",
	"1.2.3.4:", ":5", "1..3.4:5", "1.2.3.4:+5", "[::ffff:1.2.3.4]:5", "1.2.3.4:123456",
}

// canonicalEndpoint reports whether addr is an IPv4 endpoint in the form
// netip formats one: the form SetAddr must hold inline, and nothing else.
func canonicalEndpoint(addr string) bool {
	ap, err := netip.ParseAddrPort(addr)
	return err == nil && ap.Addr().Is4() && ap.String() == addr
}

// FuzzAddrRoundTrip: any address up to codec.MaxAddrLen, set on a record,
// reads back byte for byte, is held inline exactly when it is a canonical
// IPv4 endpoint, and keeps doing so through a change to the other form and
// back and through a remove and re-join, with the tree's invariants holding
// after every step.
func FuzzAddrRoundTrip(f *testing.F) {
	for _, addr := range append([]string{"0.0.0.0:0", "255.255.255.255:65535", "10.1.22.133:7000", "198.51.100.1:40000", ""}, nearEndpoints...) {
		f.Add(addr)
	}
	path := []topology.NodeID{7, 3, propLandmark}
	f.Fuzz(func(t *testing.T, addr string) {
		if len(addr) > codec.MaxAddrLen {
			addr = addr[:codec.MaxAddrLen]
		}
		c := NewCore(propLandmark)
		other, _ := c.Join(2, path, 0, nil) // a neighbour whose text run must survive
		c.SetAddr(c.Record(other), "peer-2.example:7000")
		check := func(step string, rec *Record, want string) {
			t.Helper()
			if got := string(c.AppendAddr(nil, rec)); got != want {
				t.Fatalf("%s: %q reads back as %q", step, want, got)
			}
			if rec.inline != canonicalEndpoint(want) {
				t.Fatalf("%s: %q held inline: %v", step, want, rec.inline)
			}
			if got := string(c.AppendAddr(nil, c.Record(other))); got != "peer-2.example:7000" {
				t.Fatalf("%s: the neighbour reads %q", step, got)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		slot, _ := c.Join(1, path, 0, nil)
		rec := c.Record(slot)
		c.SetAddr(rec, addr)
		check("set", rec, addr)
		flip := "10.0.0.1:7000"
		if rec.inline {
			flip = "peer-1.example:7000"
		}
		c.SetAddr(rec, flip)
		check("the other form", rec, flip)
		c.SetAddr(rec, addr)
		check("back", rec, addr)
		c.Remove(slot)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("remove: %v", err)
		}
		slot, _ = c.Join(1, path, 0, nil)
		rec = c.Record(slot)
		if got := c.AppendAddr(nil, rec); len(got) != 0 {
			t.Fatalf("a re-joined record reads address %q", got)
		}
		c.SetAddr(rec, addr)
		check("re-join", rec, addr)
	})
}

// BenchmarkAppendAddr measures reading one address out of a tree into an
// answer's buffer, as an answer candidate does, for each form: records in
// random order, so the record and its pool run are read where they lie.
func BenchmarkAppendAddr(b *testing.B) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(6))
	for _, form := range []struct {
		name string
		addr func(i int) string
	}{
		{"inline", func(i int) string {
			return fmt.Sprintf("10.%d.%d.%d:7000", rng.Intn(256), rng.Intn(256), rng.Intn(256))
		}},
		{"text", func(i int) string { return fmt.Sprintf("peer-%d.test:7000", i) }},
	} {
		b.Run(form.name, func(b *testing.B) {
			c := NewCore(propLandmark)
			recs := make([]*Record, n)
			for i := range recs {
				slot, _ := c.Join(PeerID(i+1), heapPath(1+rng.Intn(200_000)), 0, nil)
				recs[i] = c.Record(slot)
				c.SetAddr(recs[i], form.addr(i))
			}
			rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			dst := make([]byte, 0, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(dst) > 512-codec.MaxAddrLen {
					dst = dst[:0]
				}
				dst = c.AppendAddr(dst, recs[i&(n-1)])
			}
		})
	}
}
