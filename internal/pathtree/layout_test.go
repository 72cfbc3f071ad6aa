package pathtree

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// pointers lists the places in a value of type t, nested ones included,
// that the garbage collector must follow, by field name.
func pointers(t reflect.Type, name string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			out = append(out, pointers(t.Field(i).Type, t.Field(i).Name)...)
		}
		return out
	case reflect.Array:
		return pointers(t.Elem(), name)
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return []string{name}
	}
	return nil
}

// TestLayoutIsPointerFree pins the resident layout: not one of a tree's four
// pools holds a pointer — the chunks of trie nodes, child pairs, peer
// records and address bytes are never scanned by the collector — a node is
// 24 bytes, so a chunk of them is 6 144 bytes, which is a Go size class of
// its own and wastes nothing; a record fits 32 bytes and keeps no time.Time
// and no path.
func TestLayoutIsPointerFree(t *testing.T) {
	var c Core
	for _, chunk := range []reflect.Type{
		reflect.TypeOf(c.nodes.chunks).Elem().Elem(),
		reflect.TypeOf(c.kids.chunks).Elem().Elem(),
		reflect.TypeOf(c.recs.chunks).Elem().Elem(),
		reflect.TypeOf(c.addrs.chunks).Elem().Elem(),
	} {
		if ptrs := pointers(chunk, chunk.String()); len(ptrs) != 0 {
			t.Errorf("pool chunk %v holds pointer fields %v", chunk, ptrs)
		}
	}
	if size := unsafe.Sizeof(node{}); size != 24 {
		t.Errorf("node is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof([slabSize]node{}); size != 6144 {
		t.Errorf("a chunk of nodes is %d bytes, want 6 144", size)
	}
	if size := unsafe.Sizeof(kid{}); size != 8 {
		t.Errorf("child pair is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(Record{}); size > 32 {
		t.Errorf("Record is %d bytes, want ≤ 32", size)
	}
	rec := reflect.TypeOf(Record{})
	for i := 0; i < rec.NumField(); i++ {
		if f := rec.Field(i); f.Type == reflect.TypeOf(time.Time{}) || f.Name == "Path" {
			t.Errorf("Record stores field %s %v", f.Name, f.Type)
		}
	}
}
