package main

import (
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestWcharCoversLoopbackBytes pushes a known byte count through a loopback
// socket pair and checks this process's /proc wchar delta covers it: wchar
// is what cluster.wire_bytes_per_iter is built from.
func TestWcharCoversLoopbackBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 4 << 20
	got := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer c.Close()
		k, _ := io.Copy(io.Discard, c)
		got <- k
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	before, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for sent := 0; sent < n; sent += len(buf) {
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if k := <-got; k != n {
		t.Fatalf("peer read %d bytes, want %d", k, n)
	}
	after, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after.wchar - before.wchar; d < n {
		t.Fatalf("wchar grew by %d, less than the %d bytes written", d, n)
	}
	if after.hwmKB <= 0 || after.cpu <= 0 {
		t.Fatalf("VmHWM %d kB, cpu %v: want both positive", after.hwmKB, after.cpu)
	}
}

// TestCPUTimeCountsWork spins one goroutine for 200ms of wall time and
// checks cpuTime grew by a share of it, and by no more than every CPU could
// have done in that time.
func TestCPUTimeCountsWork(t *testing.T) {
	c0, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	x := 0
	for time.Since(t0) < 200*time.Millisecond {
		x++
	}
	wall := time.Since(t0)
	c1, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	d := c1 - c0
	if d < wall/4 || d > wall*time.Duration(runtime.NumCPU())+20*time.Millisecond {
		t.Fatalf("cpuTime grew by %v over %v of spinning (%d loops) on %d CPUs", d, wall, x, runtime.NumCPU())
	}
}

func TestMetricsParse(t *testing.T) {
	m := metrics{
		`tfhpc_a_total{x="1"}`:  2,
		`tfhpc_a_total{x="2"}`:  3,
		`tfhpc_ab_total`:        100,
		`tfhpc_h_seconds_sum`:   1.5,
		`tfhpc_h_seconds_count`: 3,
	}
	if got := m.sum("tfhpc_a_total"); got != 5 {
		t.Errorf("sum = %v, want 5 (labels summed, prefix-sharing names excluded)", got)
	}
	if got := histMean(metrics{}, m, "tfhpc_h_seconds"); got != 0.5 {
		t.Errorf("histMean = %v, want 0.5", got)
	}
}
