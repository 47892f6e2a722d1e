package firmware

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"firemarshal/internal/kernel"
)

// FuzzFirmwareDecode: a worker decodes the boot binary the shared cache
// hands it, the fleet's job specs what the build left on disk. Whatever the
// bytes, Decode never panics: it errs, or returns a boot binary whose Encode
// decodes back equal.
func FuzzFirmwareDecode(f *testing.F) {
	kimg, err := kernel.Build(kernel.BuildOpts{})
	if err != nil {
		f.Fatal(err)
	}
	boot, err := Build(KindOpenSBI, []string{"--with-payload"}, kimg)
	if err != nil {
		f.Fatal(err)
	}
	real, err := boot.Encode()
	if err != nil {
		f.Fatal(err)
	}
	mex := []byte("MEX1\x01\x02\x03\x04")
	bare, _ := BuildBare(mex).Encode()
	f.Add(real)
	f.Add(mex)
	f.Add(bare)
	for _, n := range []int{0, 3, 4, 7, 8, 9, len(real) / 2, len(real) - 1} {
		f.Add(real[:n])
	}
	// Header lengths near 2³²−1, on the boot binary's header and on the
	// kernel image's inside it.
	kernelAt := 8 + int(binary.LittleEndian.Uint32(real[4:8]))
	for _, hlen := range []uint32{math.MaxUint32, math.MaxUint32 - 7, math.MaxUint32 - 8, 1 << 31} {
		for _, at := range []int{4, kernelAt + 4} {
			b := append([]byte(nil), real...)
			binary.LittleEndian.PutUint32(b[at:at+4], hlen)
			f.Add(b)
		}
	}
	// A header Encode never writes: an empty argument list, not an absent one.
	hdr := []byte(`{"kind":"bbl","buildArgs":[],"hasKernel":false}`)
	f.Add(append(binary.LittleEndian.AppendUint32(magic[:], uint32(len(hdr))), hdr...))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded boot binary: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Encode of a decoded boot binary does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, b) {
			t.Fatalf("Encode of a decoded boot binary decodes to %+v, want %+v", back, b)
		}
	})
}
