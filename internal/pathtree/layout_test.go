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

// TestLayoutIsPointerFree pins the resident layout: not one of a tree's
// three pools holds a pointer — the chunks of trie nodes, peer records and
// address bytes are never scanned by the collector — a node is 32 bytes, so
// two share a 64-byte cache line and a chunk of them is 8 KiB, which is a Go
// size class of its own and wastes nothing; a record fits 32 bytes and keeps
// no time.Time and no path.
func TestLayoutIsPointerFree(t *testing.T) {
	var c Core
	for _, chunk := range []reflect.Type{
		reflect.TypeOf(c.nodes.chunks).Elem().Elem(),
		reflect.TypeOf(c.recs.chunks).Elem().Elem(),
		reflect.TypeOf(c.addrs.chunks).Elem().Elem(),
	} {
		if ptrs := pointers(chunk, chunk.String()); len(ptrs) != 0 {
			t.Errorf("pool chunk %v holds pointer fields %v", chunk, ptrs)
		}
	}
	if size := unsafe.Sizeof(node{}); size != 32 {
		t.Errorf("node is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof([nodeChunk]node{}); size != 8192 {
		t.Errorf("a chunk of nodes is %d bytes, want 8 192", size)
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
