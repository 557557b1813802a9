package batchwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"

	"github.com/exsample/exsample/backend"
)

// MediaType is the Content-Type of the binary frame, the one codec of both
// protocols: a handler answers any other request 415.
const MediaType = "application/x-exsample-frame"

// Version is the frame's first byte. A frame key carries no version of its
// own, so Version is also the key's: it is bumped when the key's binary form
// or cachestore's content-hash recipe changes incompatibly, and
// version-skewed peers then refuse each other's frames instead of sharing
// entries.
const Version byte = 1

// MinDetectionBytes is the smallest encoding of one detection: a one-byte
// class tag, a one-byte frame delta, five float64s and a one-byte truth id.
// Every detection count a Reader reads is bounded by it.
const MinDetectionBytes = 1 + 1 + 5*8 + 1

// isFrame reports whether r's body is declared as a binary frame.
func isFrame(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == MediaType
}

var errNonFinite = errors.New("non-finite float")

// AppendFloat appends v as its little-endian IEEE-754 bits. A NaN or an
// infinity is refused: no detector produces one, and a decoder refuses it
// too.
func AppendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, fmt.Errorf("%w %v", errNonFinite, v)
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)), nil
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendDetections appends one entry's detection list: a uvarint count, then
// each detection relative to the entry's class and frame (see the package
// doc for the layout).
func AppendDetections(b []byte, dets []backend.Detection, class string, frame int64) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(dets)))
	for i := range dets {
		d := &dets[i]
		if d.Class == class {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(d.Class))+1)
			b = append(b, d.Class...)
		}
		b = binary.AppendVarint(b, d.Frame-frame)
		var err error
		for _, v := range [5]float64{d.Box.X1, d.Box.Y1, d.Box.X2, d.Box.Y2, d.Score} {
			if b, err = AppendFloat(b, v); err != nil {
				return b, fmt.Errorf("detection %d: %w", i, err)
			}
		}
		b = binary.AppendVarint(b, int64(d.TruthID))
	}
	return b, nil
}

// Reader decodes one frame. Every read is bounded by the bytes left: a
// count is checked against them before anything is allocated. The first
// failure sticks — later reads return zero values — and Done reports it.
type Reader struct {
	buf  []byte
	err  error
	slab []backend.Detection // declared by Slab, not yet carved by Detections
}

// NewReader starts reading frame b. b must start with Version; the Reader
// copies out everything it returns, so b may be reused once decoding ends.
func NewReader(b []byte) Reader {
	r := Reader{buf: b}
	if v := r.Byte(); r.err == nil && v != Version {
		r.fail(fmt.Errorf("unsupported frame version %d (want %d)", v, Version))
	}
	return r
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < n {
		r.fail(fmt.Errorf("truncated frame: need %d bytes, %d left", n, len(r.buf)))
		return false
	}
	return true
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(errors.New("malformed uvarint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(errors.New("malformed varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Float reads a float64 written by AppendFloat, refusing a NaN or an
// infinity.
func (r *Reader) Float() float64 {
	v := math.Float64frombits(r.Uint64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("%w %v", errNonFinite, v))
		return 0
	}
	return v
}

// Count reads a uvarint count of items each at least min bytes long, and
// refuses it when the bytes left cannot hold that many.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)/min) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.buf)))
		return 0
	}
	return int(n)
}

// String reads a string written by AppendString. When its bytes equal same
// it returns same, so a frame repeating one label allocates it once.
func (r *Reader) String(same string) string {
	return r.label(r.Uvarint(), same)
}

// label reads an n-byte string, returning same when the bytes equal it.
func (r *Reader) label(n uint64, same string) string {
	if r.err == nil && n > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("truncated frame: %d-byte string, %d bytes left", n, len(r.buf)))
	}
	if r.err != nil {
		return ""
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	if string(b) == same {
		return same
	}
	return string(b)
}

// Slab reads the frame's total detection count and allocates the one slab
// every later Detections call carves its entries from.
func (r *Reader) Slab() {
	if n := r.Count(MinDetectionBytes); n > 0 {
		r.slab = make([]backend.Detection, n)
	}
}

// Detections reads one entry's detection list (see AppendDetections) into
// a cap-clipped window of the slab. Nothing found is nil.
func (r *Reader) Detections(class string, frame int64) []backend.Detection {
	m := r.Count(MinDetectionBytes)
	if r.err == nil && m > len(r.slab) {
		r.fail(fmt.Errorf("entry carries %d detections, %d left of the declared total", m, len(r.slab)))
	}
	if r.err != nil || m == 0 {
		return nil
	}
	dets := r.slab[:m:m]
	r.slab = r.slab[m:]
	for i := range dets {
		d := &dets[i]
		d.Class = class
		if tag := r.Uvarint(); tag != 0 {
			d.Class = r.label(tag-1, class)
		}
		d.Frame = frame + r.Varint()
		d.Box = backend.Box{X1: r.Float(), Y1: r.Float(), X2: r.Float(), Y2: r.Float()}
		d.Score = r.Float()
		truth := r.Varint()
		if d.TruthID = int(truth); int64(d.TruthID) != truth {
			r.fail(fmt.Errorf("truth id %d overflows int", truth))
		}
	}
	return dets
}

// Err reports the first failure so far.
func (r *Reader) Err() error { return r.err }

// Done ends the frame: it reports the first failure, bytes left unread, or
// detections the frame declared but no entry carried.
func (r *Reader) Done() error {
	switch {
	case r.err != nil:
		return r.err
	case len(r.buf) > 0:
		return fmt.Errorf("%d trailing bytes after the frame", len(r.buf))
	case len(r.slab) > 0:
		return fmt.Errorf("frame declares %d more detections than its entries carry", len(r.slab))
	}
	return nil
}
