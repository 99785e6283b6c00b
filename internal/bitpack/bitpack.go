// Package bitpack implements fixed-width bit-field arrays packed into 64-bit
// words.
//
// The paper's TLB-encoding scheme stores, inside a single w-bit TLB value,
// an array of hmax fields of ceil(log2(kB+1)) bits each — one field per
// constituent base page of a virtual huge page. This package provides that
// array: a FieldArray of n fields of fixed width laid out contiguously in a
// little bit vector, with O(1) get/set per field.
package bitpack

import "fmt"

// FieldArray is an array of n unsigned integer fields, each `width` bits
// wide, packed into 64-bit words. Fields may straddle word boundaries.
type FieldArray struct {
	words []uint64
	n     int
	width uint
}

// NewFieldArray creates an array of n fields of the given bit width, all
// initialized to zero. width must be in [1, 64].
func NewFieldArray(n int, width uint) *FieldArray {
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative field count %d", n))
	}
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: field width %d out of range [1,64]", width))
	}
	totalBits := uint64(n) * uint64(width)
	return &FieldArray{
		words: make([]uint64, (totalBits+63)/64),
		n:     n,
		width: width,
	}
}

// Len returns the number of fields.
func (a *FieldArray) Len() int { return a.n }

// Width returns the width in bits of each field.
func (a *FieldArray) Width() uint { return a.width }

// mask returns a mask of the low `width` bits.
func (a *FieldArray) mask() uint64 {
	if a.width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << a.width) - 1
}

// Get returns field i.
func (a *FieldArray) Get(i int) uint64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: Get index %d out of range [0,%d)", i, a.n))
	}
	bit := uint64(i) * uint64(a.width)
	word := bit / 64
	off := bit % 64
	v := a.words[word] >> off
	if off+uint64(a.width) > 64 {
		v |= a.words[word+1] << (64 - off)
	}
	return v & a.mask()
}

// Set stores v into field i. v must fit in Width() bits.
func (a *FieldArray) Set(i int, v uint64) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: Set index %d out of range [0,%d)", i, a.n))
	}
	m := a.mask()
	if v&^m != 0 {
		panic(fmt.Sprintf("bitpack: value %d does not fit in %d bits", v, a.width))
	}
	bit := uint64(i) * uint64(a.width)
	word := bit / 64
	off := bit % 64
	a.words[word] = a.words[word]&^(m<<off) | v<<off
	if off+uint64(a.width) > 64 {
		spill := 64 - off
		a.words[word+1] = a.words[word+1]&^(m>>spill) | v>>spill
	}
}

// Fill sets every field to v.
func (a *FieldArray) Fill(v uint64) {
	for i := 0; i < a.n; i++ {
		a.Set(i, v)
	}
}

// Clone returns a deep copy.
func (a *FieldArray) Clone() *FieldArray {
	w := make([]uint64, len(a.words))
	copy(w, a.words)
	return &FieldArray{words: w, n: a.n, width: a.width}
}

// WidthFor returns the minimum field width able to represent values in
// [0, maxValue], i.e. ceil(log2(maxValue+1)), and at least 1.
func WidthFor(maxValue uint64) uint {
	w := uint(1)
	for maxValue>>w != 0 {
		w++
	}
	return w
}
