package jsonc

import "testing"

// TestObject: keys may come in any order but not twice, the caller
// decides which keys it knows, and nothing but the compact grammar
// parses.
func TestObject(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
		sum  int64
	}{
		{`{}`, true, 0},
		{`{"a":1,"b":2,"c":3}`, true, 6},
		{`{"c":3,"a":1}`, true, 4},
		{`{"a":-0,"b":20}`, true, 20},
		{`{"a":1,"a":1}`, false, 0},
		{`{"c":3,"b":2,"c":3}`, false, 0},
		{`{"a":1,"d":4}`, false, 0},
		{`{"A":1}`, false, 0},
		{`{"a":1,}`, false, 0},
		{`{"a":1 }`, false, 0},
		{`{"a":1`, false, 0},
		{`{"a":"1"}`, false, 0},
		{`{"a":01}`, false, 0},
	} {
		d := NewDecoder([]byte(tc.body))
		var sum int64
		ok := d.Object(func(key []byte) bool {
			var n int64
			switch string(key) {
			case "a", "b", "c":
				if !d.Int64(&n) {
					return false
				}
				sum += n
				return true
			}
			return false
		}) && d.Done()
		if ok != tc.ok || (ok && sum != tc.sum) {
			t.Errorf("%s: ok %v sum %d, want %v %d", tc.body, ok, sum, tc.ok, tc.sum)
		}
	}
}
