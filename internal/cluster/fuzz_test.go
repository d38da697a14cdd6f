package cluster

import (
	"bytes"
	"slices"
	"testing"

	"tfhpc/internal/tensor"
)

// FuzzDecodeRunGraph feeds arbitrary bytes to the RunGraph request decoder.
// Malformed input must surface as an error, never a panic, and a decoded
// request must re-encode to one that decodes the same.
func FuzzDecodeRunGraph(f *testing.F) {
	seed, err := encodeRunGraph("5eed", map[string]*tensor.Tensor{
		"alpha": tensor.ScalarF64(0.25),
		"p":     tensor.FromF64(tensor.Shape{3}, []float64{1, 2, 3}),
	}, []string{"pq_sum"}, []string{"save_q", "save_x"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRunGraph(data)
		if err != nil {
			return
		}
		again, err := encodeRunGraph(r.handle, r.feeds, r.fetches, r.targets)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		r2, err := decodeRunGraph(again)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if r2.handle != r.handle || !slices.Equal(r2.fetches, r.fetches) ||
			!slices.Equal(r2.targets, r.targets) || len(r2.feeds) != len(r.feeds) {
			t.Fatal("RunGraph request does not round-trip")
		}
		for name, v := range r.feeds {
			w := r2.feeds[name]
			if w == nil {
				t.Fatalf("feed %q lost", name)
			}
			vb, _ := v.Encode(nil)
			wb, _ := w.Encode(nil)
			if !bytes.Equal(vb, wb) {
				t.Fatalf("feed %q does not round-trip", name)
			}
		}
	})
}
