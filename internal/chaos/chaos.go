// Package chaos is a deterministic, seed-driven fault injector for the
// fleet's I/O edges: an http.RoundTripper wrapper that injects dropped
// connections, latency, 5xx/429 responses, truncated and duplicated
// bodies, and a cas.Store tamper hook that injects bit-flipped reads,
// torn writes, and ENOSPC. Every fault decision is a pure function of
// (plan seed, site name, per-site call index) — no wall clock, no global
// RNG — so a chaos run's fault schedule is bit-replayable: the same seed
// against the same call sequence injects exactly the same faults, which
// is what lets `marshal chaos` demand bit-identical results from a run
// that survived them.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// Plan is one named fault schedule: the seed plus per-mille rates for
// each fault kind. HTTP rates select at most one fault per request
// (cumulative thresholds over a single roll), so their sum must stay
// under 1000; store rates likewise per operation.
type Plan struct {
	// Seed drives every decision. Same seed, same schedule.
	Seed int64

	// HTTP faults, per mille of requests at a site.
	DropPM      uint32 // connection error before the request is sent
	Err5xxPM    uint32 // synthesized 500, request never sent
	Err429PM    uint32 // synthesized 429 with Retry-After, request never sent
	TruncatePM  uint32 // real response with the body cut in half
	DuplicatePM uint32 // request sent twice (retry-after-lost-response shape)
	DelayPM     uint32 // injected latency before a real request
	// DelayMax bounds injected latency (the actual delay is schedule-drawn
	// in [1ms, DelayMax]).
	DelayMax time.Duration

	// FlakyHosts maps a host:port to an EXTRA per-mille drop rate applied
	// before the normal roll — how a chaos run singles out one peer as
	// error-prone (the worker the coordinator must quarantine).
	FlakyHosts map[string]uint32

	// Store faults, per mille of blob operations.
	FlipReadPM  uint32 // one bit flipped in the returned bytes
	TornWritePM uint32 // only half the bytes reach disk
	NoSpacePM   uint32 // the write fails with an ENOSPC-shaped error
}

// DefaultPlan is the named schedule `marshal chaos` runs under: every
// fault kind enabled at rates the hardened stack must absorb without
// losing a job or changing a single output bit.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:        seed,
		DropPM:      40,
		Err5xxPM:    40,
		Err429PM:    30,
		TruncatePM:  20,
		DuplicatePM: 20,
		DelayPM:     60,
		DelayMax:    8 * time.Millisecond,
		FlipReadPM:  30,
		TornWritePM: 20,
		NoSpacePM:   10,
	}
}

// Fault kinds, in threshold order.
const (
	FaultNone      = "none"
	FaultDrop      = "drop"
	Fault5xx       = "5xx"
	Fault429       = "429"
	FaultTruncate  = "truncate"
	FaultDuplicate = "duplicate"
	FaultDelay     = "delay"
)

// rand64 is the schedule's source of determinism: a 64-bit hash of
// (seed, site, lane, index). Lanes keep independent decisions about the
// same call (fault kind, delay length, flip position) uncorrelated.
func (p *Plan) rand64(site, lane string, index uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Seed))
	h.Write(buf[:])
	io.WriteString(h, site)
	h.Write([]byte{0})
	io.WriteString(h, lane)
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], index)
	h.Write(buf[:])
	return h.Sum64()
}

func (p *Plan) roll(site, lane string, index uint64) uint32 {
	return uint32(p.rand64(site, lane, index) % 1000)
}

// Kind returns the fault the schedule assigns to the index-th HTTP call
// at site — the replayable schedule itself, independent of any transport
// instance. (The extra FlakyHosts drop is decided per request host on a
// separate lane and is equally deterministic.)
func (p *Plan) Kind(site string, index uint64) string {
	r := p.roll(site, "kind", index)
	for _, step := range []struct {
		pm   uint32
		kind string
	}{
		{p.DropPM, FaultDrop},
		{p.Err5xxPM, Fault5xx},
		{p.Err429PM, Fault429},
		{p.TruncatePM, FaultTruncate},
		{p.DuplicatePM, FaultDuplicate},
		{p.DelayPM, FaultDelay},
	} {
		if r < step.pm {
			return step.kind
		}
		r -= step.pm
	}
	return FaultNone
}

// Fingerprint digests the plan's rates plus the first decisions of a
// fixed probe-site set into a short hex string. Two runs with the same
// seed and rates print the same fingerprint; any drift in the schedule
// function or the rates changes it — the replay assertion `marshal
// chaos -schedule-only` is built on.
func (p *Plan) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%s|",
		p.Seed, p.DropPM, p.Err5xxPM, p.Err429PM, p.TruncatePM,
		p.DuplicatePM, p.DelayPM, p.FlipReadPM, p.TornWritePM, p.NoSpacePM,
		p.DelayMax)
	var hosts []string
	for host, pm := range p.FlakyHosts {
		hosts = append(hosts, fmt.Sprintf("%s=%d", host, pm))
	}
	sort.Strings(hosts)
	io.WriteString(h, strings.Join(hosts, ","))
	for _, site := range []string{"probe-a", "probe-b", "probe-c", "probe-d"} {
		for i := uint64(0); i < 64; i++ {
			io.WriteString(h, p.Kind(site, i))
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], p.rand64(site, "delay", i))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Describe prints the schedule's first n decisions at site, one per
// line — the human-readable half of the replay assertion.
func (p *Plan) Describe(w io.Writer, site string, n int) {
	for i := uint64(0); i < uint64(n); i++ {
		fmt.Fprintf(w, "%s #%d %s\n", site, i, p.Kind(site, i))
	}
}

// delay draws the injected latency for one call: [1ms, DelayMax].
func (p *Plan) delay(site string, index uint64) time.Duration {
	max := p.DelayMax
	if max <= time.Millisecond {
		return time.Millisecond
	}
	return time.Millisecond + time.Duration(p.rand64(site, "delay", index)%uint64(max-time.Millisecond))
}

// Transport wraps an http.RoundTripper with the plan's HTTP faults. Each
// transport instance owns one site name and a call counter; the fault for
// call i is Plan.Kind(site, i).
type Transport struct {
	plan  Plan
	site  string
	next  http.RoundTripper
	reg   *obs.Registry
	sleep func(time.Duration)
	idx   atomic.Uint64
}

// Transport builds a fault-injecting RoundTripper for one site. A nil
// next uses http.DefaultTransport; reg receives chaos_* fault counters
// (nil resolves to obs.Default).
func (p Plan) Transport(site string, next http.RoundTripper, reg *obs.Registry) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{plan: p, site: site, next: next, reg: reg, sleep: time.Sleep}
}

// Calls reports how many requests this transport has seen (schedule
// position, for logs and tests).
func (t *Transport) Calls() uint64 { return t.idx.Load() }

// synthesize builds a response that never touched the network.
func synthesize(req *http.Request, code int, header http.Header, body string) *http.Response {
	if header == nil {
		header = http.Header{}
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        header,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

func (t *Transport) count(kind string) {
	t.reg.Counter("chaos_http_faults_total").Inc()
	t.reg.Counter("chaos_http_" + kind + "_total").Inc()
}

// RoundTrip injects at most one schedule-drawn fault per request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.idx.Add(1) - 1
	if pm, ok := t.plan.FlakyHosts[req.URL.Host]; ok && t.plan.roll(t.site, "flaky", i) < pm {
		t.count("flaky_drop")
		return nil, fmt.Errorf("chaos: injected drop to flaky host %s (%s #%d)", req.URL.Host, t.site, i)
	}
	switch t.plan.Kind(t.site, i) {
	case FaultDrop:
		t.count(FaultDrop)
		return nil, fmt.Errorf("chaos: injected connection drop (%s #%d)", t.site, i)
	case Fault5xx:
		t.count(Fault5xx)
		return synthesize(req, http.StatusInternalServerError, nil, "chaos: injected server error"), nil
	case Fault429:
		t.count(Fault429)
		h := http.Header{}
		h.Set("Retry-After", "0")
		return synthesize(req, http.StatusTooManyRequests, h, "chaos: injected rate limit"), nil
	case FaultTruncate:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		t.count(FaultTruncate)
		return truncateBody(resp)
	case FaultDuplicate:
		// The lost-response shape: the request lands twice and the caller
		// only sees the second answer. Idempotent protocols shrug; the
		// coordinator's reconcile pass covers the rest.
		t.count(FaultDuplicate)
		dup, err := cloneRequest(req)
		if err == nil {
			if first, ferr := t.next.RoundTrip(dup); ferr == nil {
				io.Copy(io.Discard, first.Body)
				first.Body.Close()
			}
		}
		return t.next.RoundTrip(req)
	case FaultDelay:
		t.count(FaultDelay)
		t.sleep(t.plan.delay(t.site, i))
	}
	return t.next.RoundTrip(req)
}

// cloneRequest copies a request (and its buffered body) for duplication.
// Requests whose body cannot be replayed report an error and are sent
// once.
func cloneRequest(req *http.Request) (*http.Request, error) {
	dup := req.Clone(req.Context())
	if req.Body == nil || req.Body == http.NoBody {
		return dup, nil
	}
	if req.GetBody == nil {
		return nil, errors.New("chaos: request body is not replayable")
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	dup.Body = body
	restore, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	req.Body = restore
	return dup, nil
}

// truncateBody reads the inner response and returns it with the body cut
// in half — a mid-transfer disconnect as the client sees it. Digest
// checks (blobs) and JSON decoding (everything else) catch it downstream.
func truncateBody(resp *http.Response) (*http.Response, error) {
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	cut := data[:len(data)/2]
	resp.Body = io.NopCloser(strings.NewReader(string(cut)))
	resp.ContentLength = int64(len(cut))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// StoreFaults implements the cas.Tamper hook: schedule-drawn bit flips on
// blob reads, torn writes and ENOSPC on blob writes. Read and write
// decisions run on independent per-site counters.
type StoreFaults struct {
	plan Plan
	site string
	reg  *obs.Registry
	rIdx atomic.Uint64
	wIdx atomic.Uint64
}

// StoreFaults builds the tamper hook for one store site.
func (p Plan) StoreFaults(site string, reg *obs.Registry) *StoreFaults {
	return &StoreFaults{plan: p, site: site, reg: reg}
}

// ReadBlob flips one schedule-drawn bit in the returned copy when the
// schedule says so — the disk is untouched; the *read* is corrupt, which
// is exactly what bit rot, a bad cable, or a lying page cache look like.
func (f *StoreFaults) ReadBlob(digest string, data []byte) []byte {
	i := f.rIdx.Add(1) - 1
	if len(data) == 0 || f.plan.roll(f.site, "flip", i) >= f.plan.FlipReadPM {
		return data
	}
	f.reg.Counter("chaos_store_flips_total").Inc()
	out := append([]byte(nil), data...)
	pos := f.plan.rand64(f.site, "flippos", i) % uint64(len(out))
	out[pos] ^= 1 << (f.plan.rand64(f.site, "flipbit", i) % 8)
	return out
}

// WriteBlob injects write-path faults: an ENOSPC-shaped error, or a torn
// write that persists only half the bytes under the full digest.
func (f *StoreFaults) WriteBlob(digest string, data []byte) ([]byte, error) {
	i := f.wIdx.Add(1) - 1
	r := f.plan.roll(f.site, "write", i)
	switch {
	case r < f.plan.NoSpacePM:
		f.reg.Counter("chaos_store_nospace_total").Inc()
		return nil, fmt.Errorf("chaos: injected write failure for blob %.12s: no space left on device", digest)
	case r < f.plan.NoSpacePM+f.plan.TornWritePM && len(data) > 1:
		f.reg.Counter("chaos_store_torn_writes_total").Inc()
		return data[:len(data)/2], nil
	}
	return data, nil
}

// PlantCorruptBlob puts garbage where the store at storeDir keeps the blob
// for digest (cas.BlobPath — the store's own rule, not a copy of it),
// guaranteeing the next reader walks the detect → quarantine → refetch
// self-heal path. It replaces the blob file rather than writing into it: a
// blob may share its inode with a work tree's artifacts.
func PlantCorruptBlob(storeDir, digest string) error {
	return hostutil.WriteFileAtomic(cas.BlobPath(storeDir, digest), []byte("chaos: corrupted "+digest), 0o444)
}
