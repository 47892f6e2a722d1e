package fsimg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/etc/hostname", []byte("firemarshal"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/etc/hostname")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "firemarshal" {
		t.Errorf("got %q", data)
	}
}

func TestImplicitParents(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/b/c/d.txt", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/a", "/a/b", "/a/b/c"} {
		f := fs.Lookup(dir)
		if f == nil || !f.IsDir() {
			t.Errorf("%s: not a directory", dir)
		}
	}
}

func TestRelativePathNormalized(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("etc/issue", []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("/etc/issue") == nil {
		t.Error("relative write not normalized to absolute")
	}
}

func TestPathEscapeRejected(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/../evil", []byte("x"), 0o644); err == nil {
		t.Error("expected error for path escaping root")
	}
}

func TestWriteOverDirectoryFails(t *testing.T) {
	fs := New()
	fs.MkdirAll("/etc", 0o755)
	if err := fs.WriteFile("/etc", []byte("x"), 0o644); err == nil {
		t.Error("expected error writing over a directory")
	}
}

func TestMkdirOverFileFails(t *testing.T) {
	fs := New()
	fs.WriteFile("/f", []byte("x"), 0o644)
	if err := fs.MkdirAll("/f/sub", 0o755); err == nil {
		t.Error("expected error mkdir through a file")
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	fs.WriteFile("/a/b", []byte("x"), 0o644)
	if err := fs.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("/a/b") != nil {
		t.Error("file still present after Remove")
	}
	if err := fs.Remove("/a/b"); err == nil {
		t.Error("expected error removing missing file")
	}
	if err := fs.Remove("/"); err == nil {
		t.Error("expected error removing root")
	}
}

func TestList(t *testing.T) {
	fs := New()
	fs.WriteFile("/d/z", nil, 0o644)
	fs.WriteFile("/d/a", nil, 0o644)
	fs.MkdirAll("/d/m", 0o755)
	names, err := fs.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"a", "m", "z"}) {
		t.Errorf("got %v", names)
	}
}

func TestSizeLimit(t *testing.T) {
	fs := New()
	fs.SizeLimit = 10
	if err := fs.WriteFile("/small", []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/big", []byte("1234567890"), 0o644); err == nil {
		t.Error("expected size-limit error")
	}
	// Overwriting the same file should account for the freed bytes.
	if err := fs.WriteFile("/small", []byte("1234567890"), 0o644); err != nil {
		t.Errorf("overwrite within limit failed: %v", err)
	}
}

// A clone is independent of its parent and of its sibling clones however it
// is written to — and shares the file contents it did not replace, which is
// all that makes cloning a multi-MiB image cheap.
func TestCloneIsDeep(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", []byte("orig"), 0o644)
	fs.WriteFile("/dir/gone", []byte("still here"), 0o644)
	fs.WriteFile("/dir/kept", []byte("kept"), 0o755)
	before := fs.Hash()
	cp, sibling := fs.Clone(), fs.Clone()

	cp.WriteFile("/a", []byte("changed"), 0o644)   // file replaced
	cp.WriteFile("/dir/new", []byte("n"), 0o644)   // file added
	if err := cp.Remove("/dir/gone"); err != nil { // file removed
		t.Fatal(err)
	}
	if err := cp.MkdirAll("/dir/sub/deeper", 0o700); err != nil { // directory added
		t.Fatal(err)
	}
	cp.Lookup("/dir/kept").Mode = 0o600 // node changed in place

	for name, other := range map[string]*FS{"parent": fs, "sibling clone": sibling} {
		if other.Hash() != before {
			t.Errorf("writing through a clone changed its %s", name)
		}
		if data, _ := other.ReadFile("/a"); string(data) != "orig" {
			t.Errorf("%s: /a = %q after the clone replaced it", name, data)
		}
		if other.Lookup("/dir/new") != nil || other.Lookup("/dir/sub") != nil {
			t.Errorf("%s: a file or directory added to the clone leaked", name)
		}
		if other.Lookup("/dir/gone") == nil {
			t.Errorf("%s: a file removed from the clone vanished", name)
		}
	}
	if got := cp.Hash(); got == before {
		t.Error("the clone's own writes did not take")
	}
	if &cp.Lookup("/dir/kept").Data[0] != &fs.Lookup("/dir/kept").Data[0] {
		t.Error("Clone copied a file's contents instead of sharing them")
	}
}

func TestOverlay(t *testing.T) {
	base := New()
	base.WriteFile("/etc/inittab", []byte("base"), 0o644)
	base.WriteFile("/keep", []byte("keep"), 0o644)
	over := New()
	over.WriteFile("/etc/inittab", []byte("overlay"), 0o644)
	over.WriteFile("/bench/run", []byte("bin"), 0o755)
	if err := base.Overlay(over); err != nil {
		t.Fatal(err)
	}
	d, _ := base.ReadFile("/etc/inittab")
	if string(d) != "overlay" {
		t.Errorf("overlay did not overwrite: %q", d)
	}
	d, _ = base.ReadFile("/keep")
	if string(d) != "keep" {
		t.Error("overlay destroyed unrelated file")
	}
	f := base.Lookup("/bench/run")
	if f == nil || !f.IsExec() {
		t.Error("overlay lost exec bit")
	}
}

func TestHashDeterministicAndSensitive(t *testing.T) {
	build := func(order []string) *FS {
		fs := New()
		for _, p := range order {
			fs.WriteFile(p, []byte("data-"+p), 0o644)
		}
		return fs
	}
	a := build([]string{"/x", "/y", "/z"})
	b := build([]string{"/z", "/x", "/y"})
	if a.Hash() != b.Hash() {
		t.Error("hash depends on insertion order")
	}
	b.WriteFile("/x", []byte("different"), 0o644)
	if a.Hash() == b.Hash() {
		t.Error("hash insensitive to content change")
	}
	c := build([]string{"/x", "/y", "/z"})
	c.Lookup("/x").Mode = 0o755
	if a.Hash() == c.Hash() {
		t.Error("hash insensitive to mode change")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	fs := New()
	fs.SizeLimit = 1 << 20
	fs.WriteFile("/bin/bench", []byte{0x7f, 0x45, 0x4c, 0x46, 0, 1, 2, 3}, 0o755)
	fs.WriteFile("/etc/conf", []byte("key=value\n"), 0o644)
	fs.WriteFile("/etc/empty", nil, 0o600)
	fs.MkdirAll("/empty/dir", 0o700)
	enc := encode(fs)
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != fs.Hash() {
		t.Error("round trip changed content hash")
	}
	if back.SizeLimit != fs.SizeLimit {
		t.Errorf("size limit lost: %d", back.SizeLimit)
	}
	d := back.Lookup("/empty/dir")
	if d == nil || !d.IsDir() || d.Mode&0o777 != 0o700 {
		t.Errorf("empty dir not preserved: %+v", d)
	}
	if f := back.Lookup("/etc/empty"); f == nil || f.IsDir() || len(f.Data) != 0 || f.Mode != 0o600 {
		t.Errorf("empty file not preserved: %+v", f)
	}
	if !bytes.Equal(encode(back), enc) {
		t.Error("WriteTo(Decode(b)) != b")
	}
	// A clone of the decoded image, written to, still encodes from the
	// shared bytes; the image it came from encodes as before.
	cp := back.Clone()
	cp.WriteFile("/etc/conf", []byte("key=other\n"), 0o644)
	if !bytes.Equal(encode(back), enc) {
		t.Error("writing through a clone changed what the decoded image encodes to")
	}
}

// Decode hands out slices of its input rather than copies, each capped at
// its own length so that an append can never reach the neighbouring entry.
func TestDecodeSharesItsInput(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", []byte("first"), 0o644)
	fs.WriteFile("/b", []byte("second"), 0o644)
	enc := encode(fs)
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	a := back.Lookup("/a").Data
	if off := bytes.Index(enc, []byte("first")); &a[0] != &enc[off] {
		t.Error("Decode copied a file's contents out of its input")
	}
	if cap(a) != len(a) {
		t.Errorf("decoded Data has cap %d beyond its len %d", cap(a), len(a))
	}
}

// encode is the image's bytes as WriteTo streams them.
func encode(fs *FS) []byte {
	var b bytes.Buffer
	if _, err := fs.WriteTo(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// WriteTo emits the MFS1 bytes the format has always had: the digest below
// is of this image as encoded before the encoder streamed, and every
// artifact digest in a deployed cache rests on it. The 200 KiB file is
// larger than the stream's buffer, so it goes to the writer past the buffer.
func TestWriteToMatchesPinnedDigest(t *testing.T) {
	fs := New()
	fs.SizeLimit = 1 << 20
	fs.WriteFile("/bin/bench", []byte{0x7f, 0x45, 0x4c, 0x46, 0, 1, 2, 3}, 0o755)
	fs.WriteFile("/etc/conf", []byte("key=value\n"), 0o644)
	fs.WriteFile("/etc/empty", nil, 0o600)
	fs.MkdirAll("/empty/dir", 0o700)
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7 / 3)
	}
	fs.WriteFile("/var/big", big, 0o644)
	h := sha256.New()
	n, err := fs.WriteTo(h)
	if err != nil {
		t.Fatal(err)
	}
	const want = "7971b3d2d9ce7da325e100715ac9d9ca9adb47be8551abd54e2cb405cd3b1b9d"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || n != 205047 {
		t.Errorf("WriteTo wrote %d bytes hashing to %s, want 205047 bytes hashing to %s", n, got, want)
	}
}

// WriteTo holds no copy of the image: how many allocations it makes depends
// on how many entries the image has, never on how many bytes they hold.
func TestWriteToAllocationsDoNotGrowWithImageSize(t *testing.T) {
	mk := func(fileBytes int) *FS {
		fs := New()
		for i := 0; i < 8; i++ {
			fs.WriteFile(fmt.Sprintf("/data/f%d", i), make([]byte, fileBytes), 0o644)
		}
		return fs
	}
	small, large := mk(1), mk(1<<20)
	allocsSmall := testing.AllocsPerRun(5, func() { small.WriteTo(io.Discard) })
	allocsLarge := testing.AllocsPerRun(5, func() { large.WriteTo(io.Discard) })
	// Nothing large is allocated, so no collector cycle is set off: a
	// whole-image buffer would be one allocation more, a doubling one ~20.
	if allocsLarge > allocsSmall {
		t.Errorf("WriteTo made %.0f allocations for 8 files of 1 MiB but %.0f for 8 files of 1 byte: something grows with the bytes", allocsLarge, allocsSmall)
	}
}

// FuzzDecode: the image container is read off disk and out of caches, and
// Decode keeps references into the bytes it is given. Any input either fails
// cleanly or decodes to an image that survives another trip through the
// codec. The checksum is recomputed over each mutated body as well, so the
// parser behind the CRC check is reached.
func FuzzDecode(f *testing.F) {
	fs := New()
	fs.SizeLimit = 1 << 16
	fs.WriteFile("/bin/tool", []byte("MEX1...."), 0o755)
	fs.WriteFile("/etc/empty", nil, 0o644)
	fs.MkdirAll("/var/empty", 0o700)
	f.Add(encode(fs))
	f.Add(encode(New()))
	f.Add([]byte("MFS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(img []byte) {
			kept := append([]byte(nil), img...)
			fs, err := Decode(img)
			if err != nil {
				return
			}
			back, err := Decode(encode(fs))
			if err != nil {
				t.Fatalf("WriteTo of a decoded image does not decode: %v", err)
			}
			if back.Hash() != fs.Hash() {
				t.Fatal("WriteTo of a decoded image decodes to different contents")
			}
			if !bytes.Equal(img, kept) {
				t.Fatal("Decode or WriteTo wrote to Decode's input")
			}
		}
		check(data)
		if len(data) >= 4 {
			resummed := append([]byte(nil), data...)
			body := resummed[:len(resummed)-4]
			binary.LittleEndian.PutUint32(resummed[len(body):], crc32.ChecksumIEEE(body))
			check(resummed)
		}
	})
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func() *FS {
		fs := New()
		for i := 0; i < 50; i++ {
			fs.WriteFile(fmt.Sprintf("/f%02d", i), []byte{byte(i)}, 0o644)
		}
		return fs
	}
	if !bytes.Equal(encode(mk()), encode(mk())) {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeCorruption(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", []byte("hello"), 0o644)
	enc := encode(fs)

	flip := append([]byte(nil), enc...)
	flip[len(flip)/2] ^= 0xff
	if _, err := Decode(flip); err == nil {
		t.Error("expected CRC error for corrupted image")
	}
	if _, err := Decode(enc[:10]); err == nil {
		t.Error("expected error for truncated image")
	}
	bad := append([]byte(nil), enc...)
	copy(bad[:4], "XXXX")
	if _, err := Decode(bad); err == nil {
		t.Error("expected error for bad magic")
	}
	// A data length that overflows int, under a valid checksum, is a
	// truncated entry — not a negative slice bound.
	huge := append([]byte(nil), enc...)
	lenAt := bytes.Index(huge, []byte("hello")) - 8
	binary.LittleEndian.PutUint64(huge[lenAt:], 1<<63+5)
	binary.LittleEndian.PutUint32(huge[len(huge)-4:], crc32.ChecksumIEEE(huge[:len(huge)-4]))
	if _, err := Decode(huge); err == nil {
		t.Error("expected error for an entry longer than the image")
	}
}

func TestCPIORoundTrip(t *testing.T) {
	fs := New()
	fs.WriteFile("/init", []byte("#!/bin/mshell\nload_modules\n"), 0o755)
	fs.WriteFile("/lib/modules/pfa.ko", []byte{1, 2, 3, 4, 5}, 0o644)
	fs.MkdirAll("/dev", 0o755)
	arch := fs.EncodeCPIO()
	back, err := DecodeCPIO(arch)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != fs.Hash() {
		t.Error("cpio round trip changed contents")
	}
}

func TestCPIOFormatDetails(t *testing.T) {
	fs := New()
	fs.WriteFile("/f", []byte("x"), 0o644)
	arch := fs.EncodeCPIO()
	if string(arch[:6]) != "070701" {
		t.Errorf("bad newc magic: %q", arch[:6])
	}
	if !bytes.Contains(arch, []byte("TRAILER!!!")) {
		t.Error("missing trailer")
	}
	if len(arch)%4 != 0 {
		t.Error("archive not 4-byte aligned")
	}
}

func TestCPIOTruncated(t *testing.T) {
	fs := New()
	fs.WriteFile("/f", bytes.Repeat([]byte("a"), 100), 0o644)
	arch := fs.EncodeCPIO()
	for _, cut := range []int{5, 50, len(arch) - 8} {
		if _, err := DecodeCPIO(arch[:cut]); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

// Property: any set of generated paths/contents survives both codecs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := New()
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			depth := rng.Intn(4) + 1
			p := ""
			for d := 0; d < depth; d++ {
				p += fmt.Sprintf("/d%d", rng.Intn(5))
			}
			p += fmt.Sprintf("/file%d", i)
			data := make([]byte, rng.Intn(256))
			rng.Read(data)
			mode := uint32(0o644)
			if rng.Intn(2) == 0 {
				mode = 0o755
			}
			if err := fs.WriteFile(p, data, mode); err != nil {
				return false
			}
		}
		bin, err := Decode(encode(fs))
		if err != nil || bin.Hash() != fs.Hash() {
			return false
		}
		cp, err := DecodeCPIO(fs.EncodeCPIO())
		return err == nil && cp.Hash() == fs.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Overlay is idempotent (applying the same overlay twice equals once).
func TestQuickOverlayIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := New()
		over := New()
		for i := 0; i < 10; i++ {
			p := fmt.Sprintf("/p%d", rng.Intn(15))
			base.WriteFile(p, []byte{byte(rng.Intn(256))}, 0o644)
			q := fmt.Sprintf("/p%d", rng.Intn(15))
			over.WriteFile(q, []byte{byte(rng.Intn(256))}, 0o644)
		}
		once := base.Clone()
		if err := once.Overlay(over); err != nil {
			return false
		}
		twice := once.Clone()
		if err := twice.Overlay(over); err != nil {
			return false
		}
		return once.Hash() == twice.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTotalBytesAndNumFiles(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", make([]byte, 10), 0o644)
	fs.WriteFile("/b/c", make([]byte, 20), 0o644)
	if fs.TotalBytes() != 30 {
		t.Errorf("TotalBytes = %d", fs.TotalBytes())
	}
	if fs.NumFiles() != 2 {
		t.Errorf("NumFiles = %d", fs.NumFiles())
	}
}
