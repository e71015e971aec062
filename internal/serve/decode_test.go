package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"rdbsc/internal/model"
	"rdbsc/internal/serve"
)

// decodeValid runs body through the mutation handlers' input path: decode,
// convert, validate. ok is false when any step rejects it.
func decodeValid[J, M any](body []byte, toModel func(J) M, valid func(M) error) (models []M, ok bool) {
	list, err := serve.DecodeBody[J](httptest.NewRequest("POST", "/", bytes.NewReader(body)))
	if err != nil {
		return nil, false
	}
	models = make([]M, len(list))
	for i, j := range list {
		models[i] = toModel(j)
		if valid(models[i]) != nil {
			return nil, false
		}
	}
	return models, true
}

// roundTrip checks that a body the server accepts re-encodes, through the
// wire form clients share with it, to a body it accepts as the same models.
func roundTrip[J, M any](t *testing.T, body []byte, toModel func(J) M, toJSON func(M) J, valid func(M) error) {
	models, ok := decodeValid(body, toModel, valid)
	if !ok {
		return
	}
	wire := make([]J, len(models))
	for i, m := range models {
		wire[i] = toJSON(m)
	}
	enc, err := json.Marshal(wire)
	if err != nil {
		t.Fatalf("accepted body %q does not re-encode: %v", body, err)
	}
	again, ok := decodeValid(enc, toModel, valid)
	if !ok || !reflect.DeepEqual(models, again) {
		t.Fatalf("accepted body %q\nre-encoded %s\ndecodes to %v (accepted=%v), want %v", body, enc, again, ok, models)
	}
}

// FuzzDecodeBody: no request body panics the decode → ToModel → Valid
// path, and every accepted body survives a round trip through the wire
// types.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		`{"id":1,"x":0.5,"y":0.5,"start":0,"end":4}`,
		`[{"id":1,"x":0.1,"y":0.2,"speed":1,"dir_lo":-7,"dir_width":1.5,"confidence":0.9,"depart":1},{"id":2,"speed":2,"confidence":1}]`,
		``,
		" \n\t ",
		`{"id":3,"x":0.4,"y":0.4,"speed":1,"dir_lo":2,"confidence":0.5}`, // dir_width omitted: full circle
		`[{"id":1,"start":0,"end":1}] trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip(t, body, serve.TaskJSON.ToModel, serve.NewTaskJSON, model.Task.Valid)
		roundTrip(t, body, serve.WorkerJSON.ToModel, serve.NewWorkerJSON, model.Worker.Valid)
	})
}

// TestOversizeBodyIs4xx: a body past the cap is refused as soon as the cap
// is crossed — a 400, not a read to the end or a hang.
func TestOversizeBodyIs4xx(t *testing.T) {
	h := start(t, backends[0], serve.Config{}, 0, nil)
	for path, limit := range map[string]int{"/v1/tasks": 8 << 20, "/v1/workers": 8 << 20, "/v1/solve": 1 << 20} {
		body := bytes.Repeat([]byte(" "), limit+1)
		rec := httptest.NewRecorder()
		h.srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rec.Code != 400 {
			t.Errorf("POST %s with %d bytes: %d %s, want 400", path, len(body), rec.Code, rec.Body)
		}
		// At the cap the same bytes are read in full and judged on content.
		rec = httptest.NewRecorder()
		h.srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body[:limit])))
		if path != "/v1/solve" && rec.Code != 400 || path == "/v1/solve" && rec.Code != 200 {
			t.Errorf("POST %s with %d blanks: %d %s", path, limit, rec.Code, rec.Body)
		}
	}
}
