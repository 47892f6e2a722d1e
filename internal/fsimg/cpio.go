package fsimg

import (
	"bytes"
	"fmt"
	"strconv"
)

// cpio(newc) support. The Linux kernel consumes its initramfs as a newc
// ("070701") cpio archive; FireMarshal generates one containing early-boot
// drivers and init code. This file implements a faithful encoder/decoder for
// that format so initramfs artifacts are real cpio archives.

const (
	cpioMagic   = "070701"
	cpioTrailer = "TRAILER!!!"
	// Mode type bits from the cpio spec.
	cpioTypeMask = 0o170000
	cpioTypeDir  = 0o040000
	cpioTypeReg  = 0o100000
)

// EncodeCPIO serializes the image as a cpio(newc) archive. Inode numbers are
// assigned sequentially in sorted path order; all timestamps are zero so the
// archive is deterministic.
func (fs *FS) EncodeCPIO() []byte {
	var buf bytes.Buffer
	ino := 1
	fs.Walk(func(p string, f *File) error {
		name := p[1:] // cpio names are relative
		mode := uint32(cpioTypeReg) | f.Mode&0o7777
		var data []byte
		nlink := 1
		if f.IsDir() {
			mode = cpioTypeDir | f.Mode&0o777
			nlink = 2
		} else {
			data = f.Data
		}
		writeCPIOEntry(&buf, name, mode, ino, nlink, data)
		ino++
		return nil
	})
	writeCPIOEntry(&buf, cpioTrailer, 0, 0, 1, nil)
	return buf.Bytes()
}

func writeCPIOEntry(buf *bytes.Buffer, name string, mode uint32, ino, nlink int, data []byte) {
	// newc header: magic + 13 8-digit hex fields.
	fmt.Fprintf(buf, "%s%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X",
		cpioMagic,
		ino,       // c_ino
		mode,      // c_mode
		0,         // c_uid
		0,         // c_gid
		nlink,     // c_nlink
		0,         // c_mtime
		len(data), // c_filesize
		0, 0,      // c_devmajor, c_devminor
		0, 0, // c_rdevmajor, c_rdevminor
		len(name)+1, // c_namesize (including NUL)
		0,           // c_check
	)
	buf.WriteString(name)
	buf.WriteByte(0)
	pad4(buf)
	buf.Write(data)
	pad4(buf)
}

func pad4(buf *bytes.Buffer) {
	for buf.Len()%4 != 0 {
		buf.WriteByte(0)
	}
}

// DecodeCPIO parses a cpio(newc) archive into a filesystem image.
func DecodeCPIO(data []byte) (*FS, error) {
	fs := New()
	off := 0
	for {
		if off+110 > len(data) {
			return nil, fmt.Errorf("fsimg: truncated cpio header at offset %d", off)
		}
		hdr := data[off : off+110]
		if string(hdr[:6]) != cpioMagic {
			return nil, fmt.Errorf("fsimg: bad cpio magic %q at offset %d", hdr[:6], off)
		}
		field := func(i int) (uint64, error) {
			s := string(hdr[6+8*i : 6+8*(i+1)])
			return strconv.ParseUint(s, 16, 64)
		}
		mode, err := field(1)
		if err != nil {
			return nil, fmt.Errorf("fsimg: bad cpio mode field: %v", err)
		}
		filesize, err := field(6)
		if err != nil {
			return nil, fmt.Errorf("fsimg: bad cpio filesize field: %v", err)
		}
		namesize, err := field(11)
		if err != nil {
			return nil, fmt.Errorf("fsimg: bad cpio namesize field: %v", err)
		}
		off += 110
		// The sizes are compared with what is left before either is added to
		// off: a field is up to 2³²−1, which wraps an int on 32-bit builds.
		if namesize == 0 {
			return nil, fmt.Errorf("fsimg: cpio entry at offset %d has no name", off-110)
		}
		if namesize > uint64(len(data)-off) {
			return nil, fmt.Errorf("fsimg: truncated cpio name")
		}
		name := string(data[off : off+int(namesize)-1]) // strip NUL
		off = align4(off + int(namesize))
		if name == cpioTrailer {
			return fs, nil
		}
		if off > len(data) || filesize > uint64(len(data)-off) {
			return nil, fmt.Errorf("fsimg: truncated cpio data for %q", name)
		}
		body := data[off : off+int(filesize)]
		off = align4(off + int(filesize))
		switch mode & cpioTypeMask {
		case cpioTypeDir:
			if err := fs.MkdirAll("/"+name, uint32(mode)&0o777); err != nil {
				return nil, err
			}
		case cpioTypeReg:
			if err := fs.WriteFile("/"+name, body, uint32(mode)&0o7777); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("fsimg: unsupported cpio entry type %o for %q", mode&cpioTypeMask, name)
		}
	}
}

func align4(n int) int {
	return (n + 3) &^ 3
}
