package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/obs"
)

// TestScheduleIsPureFunction: the fault kind for (seed, site, index) never
// changes — the property every replay assertion in the chaos gate rests on.
func TestScheduleIsPureFunction(t *testing.T) {
	a := DefaultPlan(7)
	b := DefaultPlan(7)
	for _, site := range []string{"coord-cache", "coord-worker", "worker0-store"} {
		for i := uint64(0); i < 512; i++ {
			if ka, kb := a.Kind(site, i), b.Kind(site, i); ka != kb {
				t.Fatalf("Kind(%s, %d) = %s then %s; schedule is not pure", site, i, ka, kb)
			}
		}
	}
	// Distinct sites and seeds draw distinct schedules (overwhelmingly).
	diff := 0
	other := DefaultPlan(8)
	for i := uint64(0); i < 512; i++ {
		if a.Kind("coord-cache", i) != a.Kind("coord-worker", i) {
			diff++
		}
		if a.Kind("coord-cache", i) != other.Kind("coord-cache", i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("512 indexes across two sites and two seeds drew identical schedules")
	}
}

// TestScheduleRates: over many draws each enabled fault kind fires, none
// fires wildly off its per-mille rate, and the zero plan never fires.
func TestScheduleRates(t *testing.T) {
	p := DefaultPlan(11)
	counts := map[string]int{}
	const n = 20000
	for i := uint64(0); i < n; i++ {
		counts[p.Kind("rate-site", i)]++
	}
	for kind, pm := range map[string]uint32{
		FaultDrop: p.DropPM, Fault5xx: p.Err5xxPM, Fault429: p.Err429PM,
		FaultTruncate: p.TruncatePM, FaultDuplicate: p.DuplicatePM, FaultDelay: p.DelayPM,
	} {
		got := counts[kind]
		want := int(pm) * n / 1000
		if got == 0 {
			t.Errorf("fault %s never fired in %d draws (rate %d pm)", kind, n, pm)
		}
		if got < want/2 || got > want*2 {
			t.Errorf("fault %s fired %d times, want about %d", kind, got, want)
		}
	}
	quiet := Plan{Seed: 11}
	for i := uint64(0); i < 1000; i++ {
		if k := quiet.Kind("rate-site", i); k != FaultNone {
			t.Fatalf("zero-rate plan injected %s at #%d", k, i)
		}
	}
}

// TestFingerprint: stable per seed, distinct across seeds and rate edits.
func TestFingerprint(t *testing.T) {
	base, again := DefaultPlan(3), DefaultPlan(3)
	if a, b := base.Fingerprint(), again.Fingerprint(); a != b {
		t.Errorf("same plan, fingerprints %s != %s", a, b)
	}
	other := DefaultPlan(4)
	if base.Fingerprint() == other.Fingerprint() {
		t.Error("seeds 3 and 4 share a fingerprint")
	}
	edited := DefaultPlan(3)
	edited.DropPM++
	if edited.Fingerprint() == base.Fingerprint() {
		t.Error("editing a rate did not change the fingerprint")
	}
	flaky := DefaultPlan(3)
	flaky.FlakyHosts = map[string]uint32{"h:1": 900}
	if flaky.Fingerprint() == base.Fingerprint() {
		t.Error("adding a flaky host did not change the fingerprint")
	}
}

// transportForKind builds a plan whose every call at the site draws the
// one requested fault, a backing test server, and a client using the
// fault transport.
func transportForKind(t *testing.T, kind string, handler http.Handler) (*Transport, *httptest.Server, *obs.Registry) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	p := Plan{Seed: 1, DelayMax: 2 * time.Millisecond}
	switch kind {
	case FaultDrop:
		p.DropPM = 1000
	case Fault5xx:
		p.Err5xxPM = 1000
	case Fault429:
		p.Err429PM = 1000
	case FaultTruncate:
		p.TruncatePM = 1000
	case FaultDuplicate:
		p.DuplicatePM = 1000
	case FaultDelay:
		p.DelayPM = 999
	}
	reg := obs.NewRegistry()
	return p.Transport("test-site", nil, reg), srv, reg
}

func TestTransportDrop(t *testing.T) {
	tr, srv, reg := transportForKind(t, FaultDrop, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("dropped request reached the server")
	}))
	client := &http.Client{Transport: tr}
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("injected drop returned no error")
	}
	if got := reg.Counter("chaos_http_drop_total").Value(); got != 1 {
		t.Errorf("chaos_http_drop_total = %d, want 1", got)
	}
	if got := reg.Counter("chaos_http_faults_total").Value(); got != 1 {
		t.Errorf("chaos_http_faults_total = %d, want 1", got)
	}
}

func TestTransport5xxAnd429(t *testing.T) {
	for kind, wantCode := range map[string]int{Fault5xx: 500, Fault429: 429} {
		tr, srv, _ := transportForKind(t, kind, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.Errorf("%s request reached the server", kind)
		}))
		resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status %d, want %d", kind, resp.StatusCode, wantCode)
		}
		if kind == Fault429 {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("injected 429 carries no Retry-After header")
			}
		}
		resp.Body.Close()
	}
}

func TestTransportTruncate(t *testing.T) {
	const body = "0123456789abcdef"
	tr, srv, _ := transportForKind(t, FaultTruncate, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := body[:len(body)/2]; string(got) != want {
		t.Errorf("truncated body = %q, want %q", got, want)
	}
}

func TestTransportDuplicate(t *testing.T) {
	hits := 0
	tr, srv, _ := transportForKind(t, FaultDuplicate, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		data, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "hit %d body %s", hits, data)
	}))
	resp, err := (&http.Client{Transport: tr}).Post(srv.URL, "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if hits != 2 {
		t.Errorf("duplicated request landed %d times, want 2", hits)
	}
	// The caller sees the second answer, with the body intact both times.
	if want := "hit 2 body payload"; string(got) != want {
		t.Errorf("response = %q, want %q", got, want)
	}
}

func TestTransportDelay(t *testing.T) {
	tr, srv, _ := transportForKind(t, FaultDelay, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	var slept time.Duration
	tr.sleep = func(d time.Duration) { slept += d }
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept <= 0 || slept > 2*time.Millisecond {
		t.Errorf("injected delay %v, want in (0, 2ms]", slept)
	}
}

// TestTransportFlakyHost: the extra per-host drop rate singles out one
// peer while others pass untouched.
func TestTransportFlakyHost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	p := Plan{Seed: 5, FlakyHosts: map[string]uint32{host: 1000}}
	client := &http.Client{Transport: p.Transport("flaky-site", nil, obs.NewRegistry())}
	if _, err := client.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "flaky host") {
		t.Fatalf("flaky host got through: err = %v", err)
	}

	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer other.Close()
	client2 := &http.Client{Transport: p.Transport("flaky-site", nil, obs.NewRegistry())}
	resp, err := client2.Get(other.URL)
	if err != nil {
		t.Fatalf("non-flaky host was dropped: %v", err)
	}
	resp.Body.Close()
}

func TestStoreFaultsReadFlip(t *testing.T) {
	p := Plan{Seed: 9, FlipReadPM: 1000}
	reg := obs.NewRegistry()
	f := p.StoreFaults("store", reg)
	orig := []byte("blob contents under test")
	got := f.ReadBlob("d0", append([]byte(nil), orig...))
	if bytes.Equal(got, orig) {
		t.Fatal("ReadBlob at 1000pm returned unflipped data")
	}
	diff := 0
	for i := range orig {
		diff += bitsSet(got[i] ^ orig[i])
	}
	if diff != 1 {
		t.Errorf("ReadBlob flipped %d bits, want exactly 1", diff)
	}
	if got := reg.Counter("chaos_store_flips_total").Value(); got != 1 {
		t.Errorf("chaos_store_flips_total = %d, want 1", got)
	}
	// Replays of the same read index flip the same bit.
	f2 := p.StoreFaults("store", reg)
	if again := f2.ReadBlob("d0", append([]byte(nil), orig...)); !bytes.Equal(again, got) {
		t.Error("same (seed, site, index) flipped a different bit on replay")
	}
	// The zero plan passes data through untouched.
	quiet := Plan{Seed: 9}
	if got := quiet.StoreFaults("store", reg).ReadBlob("d0", orig); !bytes.Equal(got, orig) {
		t.Error("zero-rate plan tampered with a read")
	}
}

func bitsSet(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestStoreFaultsWrite(t *testing.T) {
	data := []byte("0123456789")
	reg := obs.NewRegistry()

	torn := Plan{Seed: 2, TornWritePM: 1000}
	got, err := torn.StoreFaults("store", reg).WriteBlob("d1", data)
	if err != nil {
		t.Fatalf("torn write errored: %v", err)
	}
	if len(got) != len(data)/2 {
		t.Errorf("torn write persisted %d bytes, want %d", len(got), len(data)/2)
	}
	if reg.Counter("chaos_store_torn_writes_total").Value() != 1 {
		t.Error("chaos_store_torn_writes_total not incremented")
	}

	full := Plan{Seed: 2, NoSpacePM: 1000}
	if _, err := full.StoreFaults("store", reg).WriteBlob("d1", data); err == nil || !strings.Contains(err.Error(), "no space") {
		t.Errorf("ENOSPC fault err = %v, want no-space error", err)
	}
	if reg.Counter("chaos_store_nospace_total").Value() != 1 {
		t.Error("chaos_store_nospace_total not incremented")
	}

	quiet := Plan{Seed: 2}
	if got, err := quiet.StoreFaults("store", reg).WriteBlob("d1", data); err != nil || !bytes.Equal(got, data) {
		t.Errorf("zero-rate plan altered a write: %q, %v", got, err)
	}
}

// TestPlantCorruptBlob: the planted file must be where Store.Get looks —
// shown by Get finding it, refusing it and quarantining it, not by
// rebuilding the path here.
func TestPlantCorruptBlob(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest, err := store.Put([]byte("a healthy artifact"))
	if err != nil {
		t.Fatal(err)
	}
	if err := PlantCorruptBlob(store.Dir(), digest); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(digest); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("Get after planting = %v, want ErrCorrupt: the plant is not where the store reads", err)
	}
	if store.Quarantined() != 1 || store.Has(digest) {
		t.Errorf("planted blob not quarantined (quarantined=%d, still present=%v)", store.Quarantined(), store.Has(digest))
	}
}
