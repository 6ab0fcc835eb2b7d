package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"freejoin/internal/relation"
)

// Row encoding: uvarint arity, then one value after another. Each value
// is a one-byte kind tag followed by its payload — nothing for null,
// 0/1 for bool, a zigzag varint for int, 8 big-endian bits for float,
// a uvarint length plus raw bytes for string. The encoding is
// self-delimiting, so runs concatenate rows with no framing, and unlike
// relation.AppendKey it round-trips every value exactly (AppendKey is an
// ordering/identity key, not a codec).
const (
	tagNull  = 'N'
	tagFalse = 'F'
	tagTrue  = 'T'
	tagInt   = 'I'
	tagFloat = 'D'
	tagStr   = 'S'
)

// appendRow appends the encoding of row to b.
func appendRow(b []byte, row []relation.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		switch v.Kind() {
		case relation.KindNull:
			b = append(b, tagNull)
		case relation.KindBool:
			if v.AsBool() {
				b = append(b, tagTrue)
			} else {
				b = append(b, tagFalse)
			}
		case relation.KindInt:
			b = append(b, tagInt)
			b = binary.AppendVarint(b, v.AsInt())
		case relation.KindFloat:
			b = append(b, tagFloat)
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
		case relation.KindString:
			s := v.AsString()
			b = append(b, tagStr)
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
	}
	return b
}

// readRow decodes one row from br and appends its values to dst,
// reporting false at a clean end of stream and an error on a truncated
// or corrupt run.
func readRow(br *bufio.Reader, dst []relation.Value) ([]relation.Value, bool, error) {
	arity, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return dst, false, nil
		}
		return dst, false, fmt.Errorf("spill: corrupt run: %w", err)
	}
	base := len(dst)
	dst = slices.Grow(dst, int(arity))[:base+int(arity)]
	row := dst[base:]
	for i := range row {
		tag, err := br.ReadByte()
		if err != nil {
			return dst[:base], false, truncated(err)
		}
		switch tag {
		case tagNull:
			row[i] = relation.Null()
		case tagFalse:
			row[i] = relation.Bool(false)
		case tagTrue:
			row[i] = relation.Bool(true)
		case tagInt:
			n, err := binary.ReadVarint(br)
			if err != nil {
				return dst[:base], false, truncated(err)
			}
			row[i] = relation.Int(n)
		case tagFloat:
			var buf [8]byte
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return dst[:base], false, truncated(err)
			}
			row[i] = relation.Float(math.Float64frombits(binary.BigEndian.Uint64(buf[:])))
		case tagStr:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return dst[:base], false, truncated(err)
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				return dst[:base], false, truncated(err)
			}
			row[i] = relation.Str(string(buf))
		default:
			return dst[:base], false, fmt.Errorf("spill: corrupt run: unknown value tag %q", tag)
		}
	}
	return dst, true, nil
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("spill: truncated run")
	}
	return fmt.Errorf("spill: corrupt run: %w", err)
}
