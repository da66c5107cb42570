package metrics

import (
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
)

// CounterField is one uint64 field reachable from a struct type. A counter
// set (node.Stats, transport.DropStats) is declared once as a plain struct;
// snapshot, merge, delta and registry export are loops over this list, so a
// new field cannot be forgotten in any of them.
type CounterField struct {
	// Name is the snake_case of the Go field name, a nested struct's name as
	// prefix ("Transport.InboxSheds" → "transport_inbox_sheds").
	Name  string
	index []int
}

// CounterFields lists every uint64 field of struct type t in declaration
// order, descending into nested structs. Reflection: call it once, at init.
func CounterFields(t reflect.Type) []CounterField { return counterFields(t, "", nil) }

func counterFields(t reflect.Type, prefix string, index []int) (out []CounterField) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, at := prefix+snakeCase(f.Name), append(index[:len(index):len(index)], i)
		switch f.Type.Kind() {
		case reflect.Uint64:
			out = append(out, CounterField{Name: name, index: at})
		case reflect.Struct:
			out = append(out, counterFields(f.Type, name+"_", at)...)
		}
	}
	return out
}

// wordStart finds where a Go identifier starts a new word: after a lower-case
// letter or digit, and at the last capital of an acronym ("SLOAlerts": the A).
var wordStart = regexp.MustCompile(`([a-z0-9])([A-Z])|([A-Z])([A-Z][a-z])`)

func snakeCase(s string) string {
	return strings.ToLower(wordStart.ReplaceAllString(s, "${1}${3}_${2}${4}"))
}

// Ptr returns the field's address inside *s, a pointer to the walked type.
func (f CounterField) Ptr(s any) *uint64 { return f.in(reflect.ValueOf(s).Elem()) }

func (f CounterField) in(v reflect.Value) *uint64 {
	return v.FieldByIndex(f.index).Addr().Interface().(*uint64)
}

// FoldCounters calls op(&dst.f, &src.f) for every listed field; dst and src
// are pointers to the walked type. Not for hot paths.
func FoldCounters(fields []CounterField, dst, src any, op func(dst, src *uint64)) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for _, f := range fields {
		op(f.in(d), f.in(s))
	}
}

// The three folds a counter set needs: LoadCounter snapshots a live tally
// (src is ticked concurrently through sync/atomic), AddCounter sums
// snapshots, SubCounter is the saturating difference of a monotonic counter.
func LoadCounter(dst, src *uint64) { *dst += atomic.LoadUint64(src) }

func AddCounter(dst, src *uint64) { *dst += *src }

func SubCounter(dst, src *uint64) { *dst -= min(*dst, *src) }
