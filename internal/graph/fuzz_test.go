package graph

import (
	"bytes"
	"testing"

	"tfhpc/internal/tensor"
)

// FuzzUnmarshalGraph feeds arbitrary bytes to the GraphDef decoder — the
// body of a task's RegisterGraph call. Malformed input must surface as an
// error, never a panic, and whatever decodes must re-encode to a GraphDef
// that decodes to the same bytes again.
func FuzzUnmarshalGraph(f *testing.F) {
	g := New()
	x := g.Placeholder("x", tensor.Float64, tensor.Shape{2})
	g.WithDevice("/job:ps/task:0/device:GPU:0", func() {
		c := g.Const(tensor.FromF64(tensor.Shape{2}, []float64{1, -2}))
		sum := g.AddNamedOp("sum", "Add", Attrs{"flag": true, "scale": 0.5, "n": 3}, x, c)
		sum.AddControlDep(c)
	})
	seed, err := MarshalGraph(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalGraph(data)
		if err != nil {
			return
		}
		once, err := MarshalGraph(g)
		if err != nil {
			t.Fatalf("decoded graph does not re-encode: %v", err)
		}
		g2, err := UnmarshalGraph(once)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		twice, err := MarshalGraph(g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("GraphDef does not round-trip")
		}
	})
}
