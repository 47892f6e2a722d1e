package fsimg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// WriteTo streams the image's deterministic binary form to w, computing the
// CRC as the bytes go by: no whole-image buffer exists, and each file's
// bytes are handed on once, through a fixed buffer or straight from Data.
// Its allocations depend on how many entries the image has, never on how
// many bytes they hold.
func (fs *FS) WriteTo(w io.Writer) (int64, error) {
	type entry struct {
		path string
		f    *File
	}
	var entries []entry
	fs.Walk(func(p string, f *File) error {
		entries = append(entries, entry{p, f})
		return nil
	})
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := &crcWriter{w: bw}
	le := binary.LittleEndian
	hdr := append(make([]byte, 0, 64), magic[:]...)
	hdr = le.AppendUint64(hdr, uint64(fs.SizeLimit))
	_, err := cw.Write(le.AppendUint32(hdr, uint32(len(entries))))
	for _, e := range entries {
		if err != nil {
			break
		}
		var data []byte
		if !e.f.IsDir() {
			data = e.f.Data
		}
		hdr = le.AppendUint32(hdr[:0], uint32(len(e.path)))
		hdr = append(hdr, e.path...)
		hdr = le.AppendUint32(hdr, e.f.Mode)
		hdr = le.AppendUint64(hdr, uint64(len(data)))
		if _, err = cw.Write(hdr); err == nil {
			_, err = cw.Write(data)
		}
	}
	if err == nil {
		_, err = cw.Write(le.AppendUint32(hdr[:0], cw.crc))
	}
	if err == nil {
		err = bw.Flush()
	}
	return cw.n, err
}

// crcWriter is WriteTo's sink: it counts and checksums what it passes on.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Decode parses a binary image produced by WriteTo. The returned image's
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
