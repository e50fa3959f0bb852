package halo

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Ranks: 4, CoresPerNode: 2, CellsPerRank: 32, Steps: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Errorf("same config, different digests:\n  %s\n  %s", a.Digest(), b.Digest())
	}
	if a.Elapsed <= 0 {
		t.Errorf("elapsed = %d, want > 0", a.Elapsed)
	}
	if len(a.FinalState) != 4*32 {
		t.Errorf("final state has %d cells, want %d", len(a.FinalState), 4*32)
	}
}

func TestRunConservesMass(t *testing.T) {
	// The stencil weights sum to 1 and the ring is closed, so total mass
	// is conserved up to float rounding.
	cfg := Config{Ranks: 4, CoresPerNode: 2, CellsPerRank: 64, Steps: 1}
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Steps = 20
	many, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff := one.Checksum - many.Checksum
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-9*one.Checksum {
		t.Errorf("mass not conserved: %v after 1 step vs %v after 20", one.Checksum, many.Checksum)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Ranks: 1, CellsPerRank: 8, Steps: 1}); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Errorf("Ranks=1: err = %v, want ranks error", err)
	}
	if _, err := Run(Config{Ranks: 4, CellsPerRank: 1, Steps: 1}); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("CellsPerRank=1: err = %v, want cells error", err)
	}
}

// refLoadBits and refStoreF64 are the byte-at-a-time window accessors the
// stencil used before it read and wrote its cells a word at a time: the
// reference for loadBits, loadF64 and storeF64.
func refLoadBits(seg []byte, slot int) uint64 {
	off := slot * 8
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(seg[off+i]) << (8 * i)
	}
	return v
}

func refStoreF64(seg []byte, slot int, v float64) {
	off := slot * 8
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		seg[off+i] = byte(bits >> (8 * i))
	}
}

func TestWordHelpersMatchByteLoops(t *testing.T) {
	const slots = 34
	rng := rand.New(rand.NewSource(1))
	patterns := []uint64{
		0, 1 << 63, // ±0
		1, 1<<52 - 1, 1<<63 | 1, // subnormals
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, // NaNs, quiet and signalling, with payloads
		0x0102030405060708, // every byte distinct
	}
	for len(patterns) < 4*slots {
		patterns = append(patterns, rng.Uint64())
	}
	got, want := make([]byte, slots*8), make([]byte, slots*8)
	for i, bits := range patterns {
		slot := i % slots
		storeF64(got, slot, math.Float64frombits(bits))
		refStoreF64(want, slot, math.Float64frombits(bits))
		if !bytes.Equal(got, want) {
			t.Fatalf("storeF64(slot %d, %016x): segment differs from the byte loop's", slot, bits)
		}
		if b := loadBits(got, slot); b != bits || b != refLoadBits(got, slot) {
			t.Fatalf("loadBits(slot %d) = %016x, stored %016x, byte loop reads %016x", slot, b, bits, refLoadBits(got, slot))
		}
		if b := math.Float64bits(loadF64(got, slot)); b != bits {
			t.Fatalf("loadF64(slot %d) = %016x, stored %016x", slot, b, bits)
		}
	}
}

// TestRunMatchesSequentialStencil checks a whole run against the stencil
// written the plain way on one host-side ring: three loads per cell, no
// ranks, no ghosts, no window.
func TestRunMatchesSequentialStencil(t *testing.T) {
	cfg := Config{Ranks: 4, CoresPerNode: 2, CellsPerRank: 32, Steps: 5}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := cfg
	initial.Steps = 0 // a run of no steps ends in the initial condition
	start, err := Run(initial)
	if err != nil {
		t.Fatal(err)
	}
	ring := start.FinalState
	n := len(ring)
	next := make([]float64, n)
	for step := 0; step < cfg.Steps; step++ {
		for i := range ring {
			next[i] = 0.25*ring[(i+n-1)%n] + 0.5*ring[i] + 0.25*ring[(i+1)%n]
		}
		ring, next = next, ring
	}
	if len(res.FinalState) != n {
		t.Fatalf("final state has %d cells, want %d", len(res.FinalState), n)
	}
	for i, v := range res.FinalState {
		if math.Float64bits(v) != math.Float64bits(ring[i]) {
			t.Fatalf("cell %d = %016x, sequential stencil has %016x", i, math.Float64bits(v), math.Float64bits(ring[i]))
		}
	}
}

// TestSmoothMatchesTwoBuffers checks the in-place stencil against the same
// stencil written into a second buffer, bit for bit, on seeded random rows
// (ghosts included) of the smallest sizes Run accepts and of a typical one.
func TestSmoothMatchesTwoBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cells := range []int{2, 3, 256} {
		for trial := 0; trial < 20; trial++ {
			seg := make([]byte, (cells+2)*8)
			for i := 0; i < cells+2; i++ {
				storeF64(seg, i, rng.NormFloat64()*math.Exp2(float64(rng.Intn(40)-20)))
			}
			want := make([]float64, cells)
			for i := range want {
				want[i] = 0.25*loadF64(seg, i) + 0.5*loadF64(seg, i+1) + 0.25*loadF64(seg, i+2)
			}
			ghostL, ghostR := loadBits(seg, 0), loadBits(seg, cells+1)
			smooth(seg, cells)
			for i, w := range want {
				if got := loadBits(seg, i+1); got != math.Float64bits(w) {
					t.Fatalf("%d cells, trial %d: cell %d = %016x, two-buffer stencil has %016x", cells, trial, i, got, math.Float64bits(w))
				}
			}
			if loadBits(seg, 0) != ghostL || loadBits(seg, cells+1) != ghostR {
				t.Fatalf("%d cells, trial %d: the stencil wrote a ghost cell", cells, trial)
			}
		}
	}
}
