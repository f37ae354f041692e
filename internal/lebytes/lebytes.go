// Package lebytes provides bulk little-endian conversions between
// numeric slices and raw bytes, plus zero-copy alias casts for mapped
// files. It is the byte layer under the SNP2 container: writes stream
// the slice memory out in one block, and mapped loads alias their
// sections directly.
//
// On little-endian machines the conversions compile to memmoves and the
// alias casts are free; on big-endian machines the conversions fall
// back to element loops and the alias casts report failure, so callers
// copy instead. Either way the byte encoding is little-endian, the
// on-disk convention of every SNAP format.
package lebytes

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// nativeLE reports whether the host stores integers little-endian.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bytesOf returns the raw bytes backing a numeric slice (native order).
func bytesOf[T int32 | int64 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// Int64sToBytes encodes src into dst (len(dst) >= 8*len(src)).
func Int64sToBytes(dst []byte, src []int64) {
	if nativeLE {
		copy(dst, bytesOf(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// Int32sToBytes encodes src into dst (len(dst) >= 4*len(src)).
func Int32sToBytes(dst []byte, src []int32) {
	if nativeLE {
		copy(dst, bytesOf(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
	}
}

// Float64sToBytes encodes src into dst (len(dst) >= 8*len(src)).
func Float64sToBytes(dst []byte, src []float64) {
	if nativeLE {
		copy(dst, bytesOf(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// BytesToInt64s decodes len(dst) values from src (len(src) >= 8*len(dst)).
func BytesToInt64s(dst []int64, src []byte) {
	if nativeLE {
		copy(bytesOf(dst), src)
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// BytesToInt32s decodes len(dst) values from src (len(src) >= 4*len(dst)).
func BytesToInt32s(dst []int32, src []byte) {
	if nativeLE {
		copy(bytesOf(dst), src)
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// BytesToFloat64s decodes len(dst) values from src (len(src) >= 8*len(dst)).
func BytesToFloat64s(dst []float64, src []byte) {
	if nativeLE {
		copy(bytesOf(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// streamChunk is the scratch size for streaming writes on hosts where
// slice memory cannot be viewed as bytes directly.
const streamChunk = 1 << 20

// WriteInt64s writes src to w as little-endian bytes: a single Write
// of the slice memory on little-endian hosts, chunked conversion
// elsewhere.
func WriteInt64s(w io.Writer, src []int64) error {
	if nativeLE {
		_, err := w.Write(bytesOf(src))
		return err
	}
	buf := make([]byte, streamChunk)
	for len(src) > 0 {
		c := min(len(src), len(buf)/8)
		Int64sToBytes(buf, src[:c])
		if _, err := w.Write(buf[:c*8]); err != nil {
			return err
		}
		src = src[c:]
	}
	return nil
}

// WriteInt32s is WriteInt64s for []int32.
func WriteInt32s(w io.Writer, src []int32) error {
	if nativeLE {
		_, err := w.Write(bytesOf(src))
		return err
	}
	buf := make([]byte, streamChunk)
	for len(src) > 0 {
		c := min(len(src), len(buf)/4)
		Int32sToBytes(buf, src[:c])
		if _, err := w.Write(buf[:c*4]); err != nil {
			return err
		}
		src = src[c:]
	}
	return nil
}

// WriteFloat64s is WriteInt64s for []float64.
func WriteFloat64s(w io.Writer, src []float64) error {
	if nativeLE {
		_, err := w.Write(bytesOf(src))
		return err
	}
	buf := make([]byte, streamChunk)
	for len(src) > 0 {
		c := min(len(src), len(buf)/8)
		Float64sToBytes(buf, src[:c])
		if _, err := w.Write(buf[:c*8]); err != nil {
			return err
		}
		src = src[c:]
	}
	return nil
}

// aligned reports whether b starts on an align-byte boundary.
func aligned(b []byte, align uintptr) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// AliasInt64s reinterprets b as []int64 without copying. It fails (and
// the caller must copy via BytesToInt64s) on big-endian hosts, when b
// is not 8-byte aligned, or when len(b) is not a multiple of 8.
func AliasInt64s(b []byte) ([]int64, bool) {
	if !nativeLE || len(b)%8 != 0 || !aligned(b, 8) {
		return nil, false
	}
	if len(b) == 0 {
		return []int64{}, true
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8), true
}

// AliasInt32s reinterprets b as []int32 without copying; same caveats
// as AliasInt64s with 4-byte alignment.
func AliasInt32s(b []byte) ([]int32, bool) {
	if !nativeLE || len(b)%4 != 0 || !aligned(b, 4) {
		return nil, false
	}
	if len(b) == 0 {
		return []int32{}, true
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), true
}

// AliasFloat64s reinterprets b as []float64 without copying; same
// caveats as AliasInt64s.
func AliasFloat64s(b []byte) ([]float64, bool) {
	if !nativeLE || len(b)%8 != 0 || !aligned(b, 8) {
		return nil, false
	}
	if len(b) == 0 {
		return []float64{}, true
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), true
}
