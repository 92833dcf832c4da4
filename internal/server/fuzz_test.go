package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/server"
)

// fuzzInsts caps every accepted fuzz run, so one input costs milliseconds.
const fuzzInsts = 1000

// hostileBodies are admission defects: a geometry whose LineSize*Assoc
// overflows int (once an integer divide by zero), a window large enough to
// allocate gigabytes, and a CPU without functional units (once a 500 after
// the watchdog's 200k stalled cycles).
var hostileBodies = []string{
	`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000,
	  "mem":{"L1":{"Size":1048576,"LineSize":4611686018427387904,"Assoc":4},
	         "L2":{"Size":524288,"LineSize":64,"Assoc":4},
	         "HitLat":1,"L2Lat":4,"MemLat":10,"MSHRs":64,"MaxTargets":16,"MaxPending":64}}`,
	fmt.Sprintf(`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000,
	  "cpu":{"FetchWidth":64,"IssueWidth":64,"CommitWidth":64,"RUUSize":%d,"LSQSize":512,
	         "StoreBufferSize":64,"FUCount":[64,64,64,64,64,64,64,64,64],"MemScanDepth":64}}`, 1<<30),
	`{"schema":"lbic-sim-request/v1","benchmark":"compress","port":"true-1","insts":1000,
	  "cpu":{"FetchWidth":64,"IssueWidth":64,"CommitWidth":64,"RUUSize":1024,"LSQSize":512,
	         "StoreBufferSize":64,"MemScanDepth":64}}`,
}

// TestSimulateRejectsOversizedConfig: every hostile request is refused
// with a 400 that names the offending field, before anything is allocated.
func TestSimulateRejectsOversizedConfig(t *testing.T) {
	h := server.New(server.Options{}).Handler()
	for i, want := range []string{"line size", "RUU size", "units"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(hostileBodies[i])))
		var e client.ErrorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, want) {
			t.Errorf("hostile body %d: HTTP %d %s; want 400 naming the %s", i, rec.Code, rec.Body, want)
		}
	}
}

// FuzzSimRequest feeds POST /v1/simulate bodies through the real handler.
// Every input yields 200 or a 4xx with a reason: never a panic or a 5xx.
// Accepted runs are capped at fuzzInsts instructions, and a cell past its
// 3s deadline answers 500, so an admitted configuration that costs
// seconds per thousand instructions is a finding too.
func FuzzSimRequest(f *testing.F) {
	for _, b := range hostileBodies {
		f.Add(b)
	}
	// One valid request per registered wire kind: its first axis
	// configuration, or the object form built from its schema fields.
	for _, o := range lbic.PortOrganizations() {
		if !o.Wire {
			continue
		}
		port := map[string]any{"kind": o.Token}
		for _, field := range o.Schema {
			switch field {
			case "width", "line_ports":
				port[field] = 2
			case "banks":
				port[field] = 4
			case "parity_banks":
				port[field] = 1
			}
		}
		var spec any = port
		if len(o.Axis) > 0 {
			spec = o.Axis[0].Key()
		}
		b, err := json.Marshal(map[string]any{
			"schema": client.RequestSchema, "benchmark": "compress", "port": spec, "insts": fuzzInsts,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	h := server.New(server.Options{MaxParallel: 1, CellTimeout: 3 * time.Second}).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		var req client.SimulateRequest
		if json.Unmarshal([]byte(body), &req) == nil &&
			(req.Insts > fuzzInsts || (req.Insts == 0 && len(req.Trace) > 0)) {
			req.Insts = fuzzInsts
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			body = string(b)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			var e client.ErrorResponse
			if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
				t.Fatalf("HTTP %d without a reason: %s", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("HTTP %d for %s: %s", rec.Code, body, rec.Body)
		}
	})
}
