package pathtree

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// pointerFields lists the fields of struct type t, nested ones included,
// that the garbage collector must follow.
func pointerFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, pointerFields(f.Type)...)
		case reflect.Array:
			if el := f.Type.Elem(); el.Kind() == reflect.Struct {
				out = append(out, pointerFields(el)...)
			}
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			out = append(out, f.Name)
		}
	}
	return out
}

// TestLayoutIsPointerFree pins the resident layout: a trie node and a child
// pair hold no pointer (so their slabs are never scanned) and a node fits 32
// bytes; a peer's record holds exactly one pointer, its address, no
// time.Time, no path, and fits 48 bytes.
func TestLayoutIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(node{}), reflect.TypeOf(kid{})} {
		if ptrs := pointerFields(typ); len(ptrs) != 0 {
			t.Errorf("%v holds pointer fields %v", typ, ptrs)
		}
	}
	if size := unsafe.Sizeof(node{}); size > 32 {
		t.Errorf("node is %d bytes, want ≤ 32", size)
	}
	if size := unsafe.Sizeof(kid{}); size != 8 {
		t.Errorf("child pair is %d bytes, want 8", size)
	}
	rec := reflect.TypeOf(Record{})
	if ptrs := pointerFields(rec); !reflect.DeepEqual(ptrs, []string{"Addr"}) {
		t.Errorf("Record holds pointer fields %v, want only Addr", ptrs)
	}
	for i := 0; i < rec.NumField(); i++ {
		if f := rec.Field(i); f.Type == reflect.TypeOf(time.Time{}) || f.Name == "Path" {
			t.Errorf("Record stores field %s %v", f.Name, f.Type)
		}
	}
	if size := rec.Size(); size > 48 {
		t.Errorf("Record is %d bytes, want ≤ 48", size)
	}
}
