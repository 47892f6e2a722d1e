package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"firemarshal/internal/isa"
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
	verifySpec, _ := json.Marshal([]JobSpec{{Name: "v", Sim: "verify", Verify: &verify.Params{
		Seeds: []int64{7, 8}, Rounds: 1, MaxEntries: 3, RTLEvery: 2, FarmSeed: 42,
		Fault: &verify.Fault{Tier: verify.TierFast, Instr: 500, Reg: 27, Xor: 1},
	}}})
	for _, seed := range [][]byte{
		good, []byte(`[]`), []byte(`null`), []byte(`{"name":"x"}`), []byte(`[{"name":"x","rtl":{}}]`),
		[]byte(`[{"name":1}]`), []byte(`[{"name":"x","ckpt":{"job":"x"}}] trailing`), []byte(`[[`), nil,
		rtlSpec, verifySpec,
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
				case specs[i].Name != "" && (code == http.StatusAccepted || code == http.StatusConflict):
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
