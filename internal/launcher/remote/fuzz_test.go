package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/verify"
)

// FuzzLeaseBody feeds POST /v1/jobs arbitrary bytes: the worker answers 400,
// or 200 with one status per spec it decoded — it never panics, and Close
// still reaps every lease it started.
func FuzzLeaseBody(f *testing.F) {
	good, _ := json.Marshal(specsNamed("a", "b", "a", ""))
	rtl := rtlsim.DefaultConfig()
	rtl.FaultMask, rtl.FaultOp = 1, isa.OpMUL
	rtlSpec, _ := json.Marshal([]JobSpec{{Name: "r", Sim: "rtl", Bin: "sha256:aa", RTL: &rtl}})
	leased, _ := json.Marshal([]JobSpec{{Name: "l", Sim: "qemu", Bin: "sha256:aa", Lease: 1<<63 + 5}})
	verifySpec, _ := json.Marshal([]JobSpec{{Name: "v", Sim: "verify", Verify: &verify.Params{
		Seeds: []int64{7, 8}, Rounds: 1, MaxEntries: 3, RTLEvery: 2, FarmSeed: 42,
		Fault: &verify.Fault{Tier: verify.TierFast, Instr: 500, Reg: 27, Xor: 1},
	}}})
	for _, seed := range [][]byte{
		good, []byte(`[]`), []byte(`null`), []byte(`{"name":"x"}`), []byte(`[{"name":"x","rtl":{}}]`),
		[]byte(`[{"name":1}]`), []byte(`[{"name":"x","ckpt":{"job":"x"}}] trailing`), []byte(`[[`), nil,
		rtlSpec, verifySpec, leased,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := NewWorker(WorkerConfig{Runner: okRunner(1), Slots: 2, Obs: obs.NewRegistry()})
		rec := httptest.NewRecorder()
		w.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))

		var specs []JobSpec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&specs); err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Errorf("undecodable body answered %d, want 400", rec.Code)
			}
		} else {
			var codes []int
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &codes) != nil || len(codes) != len(specs) {
				t.Fatalf("%d spec(s) answered %d %q", len(specs), rec.Code, rec.Body.String())
			}
			for i, code := range codes {
				switch {
				case specs[i].Name == "" && code == http.StatusBadRequest:
				case specs[i].Name != "" && (code == http.StatusAccepted || code == http.StatusConflict || code == http.StatusLocked):
				default:
					t.Errorf("spec %d (%q) answered %d", i, specs[i].Name, code)
				}
			}
		}

		closed := make(chan struct{})
		go func() { w.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(prompt):
			t.Fatal("Close never returned: a lease goroutine leaked")
		}
	})
}

// FuzzEventStream feeds the step arbitrary bytes as a registered worker's
// answer to an event poll, decoded as the worker client decodes one (an
// answer that does not decode is a failed poll), with the worker holding the
// one job's lease. The step never panics; it journals a start only for the
// current lease and at most one done record, lands a done event at most
// once and only the job's own, and the run ends with a well-formed summary.
// Events that name no lease get the one the worker was offered, so a fuzzed
// done event is honoured and lands.
func FuzzEventStream(f *testing.F) {
	doneEv := func(status, outputs string) string {
		return `{"seq":1,"type":"done","job":"x","record":{"job":"x","status":"` + status +
			`","attempts":1},"console":"P","outputs":` + outputs + `}`
	}
	for _, seed := range []string{
		`[]`, `null`, `[{`, `{"seq":0}`, `[{"seq":-1,"type":"done","job":"x"}]`,
		`[{"seq":0,"type":"start","job":"x","attempt":1},` + doneEv("ok", `{"output/r.txt":"P"}`) + `]`,
		`[` + doneEv("ok", `{"../../escape":"P"}`) + `]`,
		`[` + doneEv("ok", `{"/abs":"P","ok.txt":"P"}`) + `]`,
		`[` + doneEv("cancelled", `{}`) + `,` + doneEv("ok", `{}`) + `]`,
		`[{"seq":0,"type":"checkpoint","job":"x","ckpt":{"job":"x","digest":"P","instret":5}}]`,
		`[{"seq":0,"type":"done","job":"x","record":null},{"seq":1,"type":"done","job":"y"}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		c, err := newCoordinator(specsNamed("x"), CoordOptions{Workers: []string{"w:1"}, Poll: 5 * time.Millisecond,
			OnDone: func(Event) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		var pending []msg
		dones, lands := 0, 0
		feed := func(in msg) {
			for _, a := range c.step(in) {
				switch a.kind {
				case done:
					if dones++; dones > 1 || a.rec.Job != "x" {
						t.Fatalf("done record #%d: %+v", dones, a.rec)
					}
				case start:
					if a.job != "x" {
						t.Fatalf("start record for %q", a.job)
					}
				case land:
					if lands++; lands > 1 || a.ev.Job != "x" || a.ev.Lease != c.jobs["x"].spec.Lease {
						t.Fatalf("landing #%d of %+v", lands, a.ev)
					}
					pending = append(pending, a)
				case lease, poll:
					pending = append(pending, a)
				}
			}
		}
		feed(msg{kind: tick})
		feed(msg{kind: probe, st: &WorkerStatus{Protocol: protocolVersion, Slots: 1}})
		for n := 0; len(pending) > 0 && !c.over; n++ {
			in := pending[0]
			pending = pending[1:]
			switch in.kind {
			case lease:
				in.codes = []int{http.StatusAccepted}
			case poll:
				if n > 3 {
					continue // the stream has been read; nothing more arrives
				}
				if err := json.Unmarshal(withLease(stream, c.jobs["x"].spec.Lease), &in.evs); err != nil {
					in.err = err
				}
			}
			feed(in)
		}
		feed(msg{kind: end})
		sum := c.summary(0)
		if len(sum.Jobs) != 1 || sum.Jobs[0].Name != "x" {
			t.Fatalf("summary = %+v, want one job x", sum)
		}
		switch r := sum.Jobs[0]; r.Status {
		case launcher.StatusOK, launcher.StatusFailed, launcher.StatusTimeout, launcher.StatusCancelled, launcher.StatusSkipped:
		default:
			t.Fatalf("job x ended %q", r.Status)
		}
	})
}

// FuzzLandingOutputs feeds a coordinator arbitrary bytes as a registered
// worker's event stream (every answer to GET /v1/events) during a one-job
// fleet drive under a short deadline, landing done events with Drive's own
// OnDone: the drive never panics, ends with a well-formed summary, and
// writes nothing outside the job's run directory, whatever output keys the
// events name. Events that name no lease get the one the worker was
// offered, so a fuzzed done event is honoured and lands.
func FuzzLandingOutputs(f *testing.F) {
	payload := hostutil.HashBytes([]byte("payload"))
	done := func(status, outputs string) string {
		return `{"seq":1,"type":"done","job":"x","record":{"job":"x","status":"` + status +
			`","attempts":1},"console":"P","outputs":` + outputs + `}`
	}
	for _, seed := range []string{
		`[]`, `null`, `[{`, `{"seq":0}`, `[{"seq":-1,"type":"done","job":"x"}]`,
		`[{"seq":0,"type":"start","job":"x","attempt":1},` + done("ok", `{"output/r.txt":"P"}`) + `]`,
		`[` + done("ok", `{"../../escape":"P"}`) + `]`,
		`[` + done("ok", `{"/abs":"P","ok.txt":"P"}`) + `]`,
		`[` + done("cancelled", `{}`) + `,` + done("ok", `{}`) + `]`,
		`[{"seq":0,"type":"checkpoint","job":"x","ckpt":{"job":"x","digest":"P","instret":5}}]`,
		`[{"seq":0,"type":"done","job":"x","record":null},{"seq":1,"type":"done","job":"y"}]`,
	} {
		f.Add([]byte(strings.ReplaceAll(seed, "P", payload)))
	}
	bin := bareBin(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		store, err := cas.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		hub := httptest.NewServer(casremote.NewServer(store))
		defer hub.Close()
		rem := casremote.NewClient(hub.URL, 0)
		if _, err := PutBlob(context.Background(), rem, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		var lease atomic.Uint64
		worker := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/status":
				fmt.Fprintf(rw, `{"protocol":%d,"slots":1,"seq":0}`, protocolVersion)
			case "/v1/jobs":
				var specs []JobSpec
				if json.NewDecoder(r.Body).Decode(&specs) == nil && len(specs) == 1 {
					lease.Store(specs[0].Lease)
				}
				rw.Write([]byte(`[202]`))
			case "/v1/events":
				rw.Write(withLease(stream, lease.Load()))
			default:
				http.NotFound(rw, r)
			}
		}))
		defer worker.Close()

		top := t.TempDir()
		root := filepath.Join(top, "a", "b", "c")
		dir := filepath.Join(root, "runs", "x")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		_, sum, _ := Drive(ctx, Run{
			Jobs:         []Job{{Name: "x", Bin: bin, Sim: "qemu", Dir: dir}},
			ManifestPath: filepath.Join(root, "runs", "w.manifest.jsonl"),
			Fleet:        CoordOptions{Workers: []string{worker.Listener.Addr().String()}, Poll: 5 * time.Millisecond},
			Remote:       rem,
		})
		if sum == nil || len(sum.Jobs) != 1 || sum.Jobs[0].Name != "x" {
			t.Fatalf("summary = %+v, want one job x", sum)
		}
		switch r := sum.Jobs[0]; r.Status {
		case launcher.StatusOK, launcher.StatusFailed, launcher.StatusTimeout, launcher.StatusCancelled, launcher.StatusSkipped:
		default:
			t.Fatalf("job x ended %q", r.Status)
		}
		filepath.WalkDir(top, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && !strings.HasPrefix(p, dir+string(filepath.Separator)) &&
				!strings.HasPrefix(filepath.Base(p), "w.manifest.jsonl") {
				t.Errorf("the drive wrote %s, outside the run directory", p)
			}
			return nil
		})
	})
}

// withLease puts lease on every event of stream that names none; a stream
// that does not decode as events is passed on as it is.
func withLease(stream []byte, lease uint64) []byte {
	var evs []Event
	if json.Unmarshal(stream, &evs) != nil {
		return stream
	}
	for i := range evs {
		if evs[i].Lease == 0 {
			evs[i].Lease = lease
		}
	}
	out, _ := json.Marshal(evs)
	return out
}
