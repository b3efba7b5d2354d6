package blockstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// The value codec is sort-preserving: for two values a, b of the same kind
// (the only comparison a typed column ever performs), bytes.Compare of
// their encodings orders exactly like value.Compare, and NULL orders before
// every non-NULL value. That property is what lets a future ordered backend
// (range scans, primary-key indexes, LSM compaction) reuse this file format
// unchanged: keys can be compared without decoding. Encodings are
// self-delimiting, so a row decodes without schema information — spill
// files of wide intermediate tuples (internal/iter) reuse the codec too.
//
// Layout per value, tag byte first:
//
//	0x01 NULL    —
//	0x02 INT     8 bytes big-endian of uint64(v) with the sign bit flipped
//	0x03 FLOAT   8 bytes big-endian IEEE-754, negative values bit-inverted,
//	             positive values with the sign bit set
//	0x04 VARCHAR bytes with 0x00 escaped as 0x00 0xFF, terminated 0x00 0x00
//	0x05 BOOLEAN 1 byte (0x00 false, 0x01 true)
//
// INT and FLOAT use distinct tags, so the cross-kind numeric ordering of
// value.Compare (which compares INT against FLOAT numerically) is NOT
// preserved byte-wise; within a typed column this never arises because
// Insert coerces values to the declared column kind.
const (
	tagNull   = 0x01
	tagInt    = 0x02
	tagFloat  = 0x03
	tagString = 0x04
	tagBool   = 0x05
)

// AppendValue appends the sort-preserving encoding of v to dst.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, tagNull)
	case value.KindInt:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.AsInt())^(1<<63))
		return append(append(dst, tagInt), b[:]...)
	case value.KindFloat:
		bits := math.Float64bits(v.AsFloat())
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(append(dst, tagFloat), b[:]...)
	case value.KindString:
		dst = append(dst, tagString)
		s := v.AsStr()
		for i := 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		return append(dst, 0x00, 0x00)
	case value.KindBool:
		if v.AsBool() {
			return append(dst, tagBool, 0x01)
		}
		return append(dst, tagBool, 0x00)
	default:
		panic(fmt.Sprintf("blockstore: unencodable kind %v", v.Kind()))
	}
}

// DecodeValue decodes one value from b, returning the remainder.
func DecodeValue(b []byte) (value.Value, []byte, error) {
	if len(b) == 0 {
		return value.Value{}, nil, fmt.Errorf("blockstore: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNull:
		return value.Null(), b, nil
	case tagInt:
		if len(b) < 8 {
			return value.Value{}, nil, fmt.Errorf("blockstore: truncated INT")
		}
		u := binary.BigEndian.Uint64(b[:8]) ^ (1 << 63)
		return value.Int(int64(u)), b[8:], nil
	case tagFloat:
		if len(b) < 8 {
			return value.Value{}, nil, fmt.Errorf("blockstore: truncated FLOAT")
		}
		bits := binary.BigEndian.Uint64(b[:8])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return value.Float(math.Float64frombits(bits)), b[8:], nil
	case tagString:
		var s []byte
		for i := 0; i < len(b); i++ {
			if b[i] != 0x00 {
				s = append(s, b[i])
				continue
			}
			if i+1 >= len(b) {
				break // truncated escape
			}
			switch b[i+1] {
			case 0x00:
				return value.Str(string(s)), b[i+2:], nil
			case 0xFF:
				s = append(s, 0x00)
				i++
			default:
				return value.Value{}, nil, fmt.Errorf("blockstore: bad string escape 0x%02x", b[i+1])
			}
		}
		return value.Value{}, nil, fmt.Errorf("blockstore: unterminated VARCHAR")
	case tagBool:
		if len(b) < 1 {
			return value.Value{}, nil, fmt.Errorf("blockstore: truncated BOOLEAN")
		}
		return value.Bool(b[0] != 0), b[1:], nil
	default:
		return value.Value{}, nil, fmt.Errorf("blockstore: unknown value tag 0x%02x", tag)
	}
}

// AppendRow appends the encoding of a row: a uvarint arity followed by
// each value's encoding. Rows of any width round-trip without schema
// information.
func AppendRow(dst []byte, r storage.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRow decodes one row from b, returning the remainder. Every value
// takes at least its tag byte, so an arity beyond the bytes left is damage.
func DecodeRow(b []byte) (storage.Row, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, nil, fmt.Errorf("blockstore: bad row arity")
	}
	b = b[sz:]
	row := make(storage.Row, n)
	var err error
	for i := range row {
		row[i], b, err = DecodeValue(b)
		if err != nil {
			return nil, nil, err
		}
	}
	return row, b, nil
}
