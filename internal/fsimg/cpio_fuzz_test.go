package fsimg_test

import (
	"os"
	"path/filepath"
	"testing"

	"firemarshal/internal/fsimg"
	"firemarshal/internal/kernel"
)

// FuzzDecodeCPIO: every boot decodes its kernel's initramfs
// (kernel.Image.InitramfsFS), and the archive comes out of the shared
// cache. Whatever the bytes, DecodeCPIO never panics: it errs, or returns
// a tree whose EncodeCPIO decodes back to the same tree. The seeds are a
// real initramfs — modules, the generated init, an embedded rootfs — its
// truncations, and its first entry with the name and data sizes set to
// zero, one and values near 2³²−1.
func FuzzDecodeCPIO(f *testing.F) {
	mod := f.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "pfa.c"), []byte("int pfa_init(void) { return 0; }\n"), 0o644); err != nil {
		f.Fatal(err)
	}
	rootfs := fsimg.New()
	rootfs.WriteFile("/bin/tool", []byte("MEX1...."), 0o755)
	rootfs.WriteFile("/etc/empty", nil, 0o644)
	rootfs.MkdirAll("/var/empty", 0o700)
	kimg, err := kernel.Build(kernel.BuildOpts{Modules: map[string]string{"pfa": mod}, ExtraInitramfs: rootfs})
	if err != nil {
		f.Fatal(err)
	}
	real := kimg.Initramfs
	f.Add(real)
	for _, n := range []int{0, 6, 109, 110, 111, len(real) / 2, len(real) - 1} {
		f.Add(real[:n])
	}
	// The newc header is the magic and 13 eight-digit hex fields; field 6
	// is c_filesize, field 11 c_namesize.
	for _, v := range []string{"00000000", "00000001", "7FFFFFFF", "80000000", "FFFFFF8E", "FFFFFFFF"} {
		for _, field := range []int{6, 11} {
			b := append([]byte(nil), real...)
			copy(b[6+8*field:], v)
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := fsimg.DecodeCPIO(data)
		if err != nil {
			return
		}
		back, err := fsimg.DecodeCPIO(fs.EncodeCPIO())
		if err != nil {
			t.Fatalf("EncodeCPIO of a decoded archive does not decode: %v", err)
		}
		if back.Hash() != fs.Hash() {
			t.Fatal("EncodeCPIO of a decoded archive decodes to different contents")
		}
	})
}
