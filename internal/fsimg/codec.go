package fsimg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Binary image format ("MFS1"):
//
//	magic   [4]byte  "MFS1"
//	limit   uint64   size limit (0 = unlimited)
//	count   uint32   number of entries
//	entries, each:
//	   pathLen uint32, path []byte
//	   mode    uint32
//	   dataLen uint64, data []byte   (dataLen = 0 and mode&ModeDir for dirs)
//	crc     uint32   IEEE CRC-32 of everything before it
//
// Entries are emitted in sorted path order so identical logical images
// produce identical bytes.

var magic = [4]byte{'M', 'F', 'S', '1'}

// Encode serializes the image to its deterministic binary form. One walk
// collects the entries and the exact output size, so the buffer is allocated
// once and every file's bytes are copied once.
func (fs *FS) Encode() []byte {
	type entry struct {
		path string
		f    *File
	}
	var entries []entry
	size := len(magic) + 8 + 4 + 4 // magic, limit, count ... crc
	fs.Walk(func(p string, f *File) error {
		entries = append(entries, entry{p, f})
		size += 4 + len(p) + 4 + 8
		if !f.IsDir() {
			size += len(f.Data)
		}
		return nil
	})
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = le.AppendUint64(buf, uint64(fs.SizeLimit))
	buf = le.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = le.AppendUint32(buf, uint32(len(e.path)))
		buf = append(buf, e.path...)
		buf = le.AppendUint32(buf, e.f.Mode)
		if e.f.IsDir() {
			buf = le.AppendUint64(buf, 0)
		} else {
			buf = le.AppendUint64(buf, uint64(len(e.f.Data)))
			buf = append(buf, e.f.Data...)
		}
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Decode parses a binary image produced by Encode. The returned image's
// files are slices of data (each capped at its own length), not copies: the
// caller hands the buffer over and must not write to it afterwards, as
// File.Data's contract says of any Data.
func Decode(data []byte) (*FS, error) {
	if len(data) < 4+8+4+4 {
		return nil, fmt.Errorf("fsimg: image too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("fsimg: bad magic %q", data[:4])
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	wantCRC := binary.LittleEndian.Uint32(crcBytes)
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("fsimg: CRC mismatch: image corrupt (got %08x want %08x)", got, wantCRC)
	}
	fs := New()
	off := 4
	fs.SizeLimit = int64(binary.LittleEndian.Uint64(body[off:]))
	off += 8
	count := binary.LittleEndian.Uint32(body[off:])
	off += 4
	for i := uint32(0); i < count; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("fsimg: truncated entry %d", i)
		}
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+plen+4+8 > len(body) {
			return nil, fmt.Errorf("fsimg: truncated entry %d", i)
		}
		p := string(body[off : off+plen])
		off += plen
		mode := binary.LittleEndian.Uint32(body[off:])
		off += 4
		dlen64 := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if dlen64 > uint64(len(body)-off) {
			return nil, fmt.Errorf("fsimg: truncated data for %q", p)
		}
		dlen := int(dlen64)
		if mode&ModeDir != 0 {
			if err := fs.MkdirAll(p, mode&0o777); err != nil {
				return nil, err
			}
		} else {
			// The size limit is not applied during decode: the encoded
			// image was valid when written.
			cp, err := cleanFilePath(p)
			if err != nil {
				return nil, err
			}
			if err := fs.place(cp, body[off:off+dlen:off+dlen], mode); err != nil {
				return nil, err
			}
		}
		off += dlen
	}
	if off != len(body) {
		return nil, fmt.Errorf("fsimg: %d trailing bytes", len(body)-off)
	}
	return fs, nil
}
