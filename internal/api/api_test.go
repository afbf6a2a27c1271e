package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Every registered code maps to a sensible HTTP status and the mapping
// is total (no code falls through to the 500 default accidentally).
func TestCodeHTTPStatus(t *testing.T) {
	for _, c := range Codes() {
		st := c.HTTPStatus()
		if st < 400 || st > 599 {
			t.Errorf("code %s maps to non-error status %d", c, st)
		}
	}
	if got := Code("from_the_future").HTTPStatus(); got != 500 {
		t.Errorf("unknown code status = %d, want 500", got)
	}
	if !CodeQueueFull.Retryable() || CodeInvalidSpec.Retryable() {
		t.Error("Retryable classification wrong")
	}
}

// The envelope round-trips through JSON with the exact field names the
// contract documents, and behaves as an error value.
func TestErrorEnvelope(t *testing.T) {
	e := Errorf(CodeDatasetNotFound, "unknown dataset %q", "ds-1").With("dataset_id", "ds-1")
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["code"] != "dataset_not_found" || m["message"] != `unknown dataset "ds-1"` {
		t.Errorf("envelope = %v", m)
	}
	if det, ok := m["details"].(map[string]any); !ok || det["dataset_id"] != "ds-1" {
		t.Errorf("details = %v", m["details"])
	}

	var wrapped error = fmt.Errorf("submit: %w", e)
	var ae *Error
	if !errors.As(wrapped, &ae) || ae.Code != CodeDatasetNotFound {
		t.Errorf("errors.As through wrapping failed: %v", wrapped)
	}
}

func TestPageTokenRoundTrip(t *testing.T) {
	tok := EncodePageToken("jobs", "job-000042")
	id, err := DecodePageToken("jobs", tok)
	if err != nil || id != "job-000042" {
		t.Fatalf("round trip = %q, %v", id, err)
	}
	// Wrong collection, garbage, and empty ids are all invalid_page_token.
	for _, bad := range []func() (string, error){
		func() (string, error) { return DecodePageToken("datasets", tok) },
		func() (string, error) { return DecodePageToken("jobs", "!!!not-base64!!!") },
		func() (string, error) { return DecodePageToken("jobs", EncodePageToken("jobs", "")) },
	} {
		if _, err := bad(); err == nil {
			t.Error("bad token accepted")
		} else {
			var ae *Error
			if !errors.As(err, &ae) || ae.Code != CodeInvalidPageToken {
				t.Errorf("bad token error = %v, want invalid_page_token", err)
			}
		}
	}
}

func TestPaginate(t *testing.T) {
	ids := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("it-%03d", i)
		}
		return out
	}
	self := func(s string) string { return s }

	items := ids(5)
	// Page through with limit 2: 2 + 2 + 1, then exhausted.
	var got []string
	token := ""
	pages := 0
	for {
		page, next, err := Paginate(items, self, "things", 2, token)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		pages++
		if next == "" {
			break
		}
		token = next
	}
	if pages != 3 || len(got) != 5 {
		t.Fatalf("pages = %d, items = %d", pages, len(got))
	}
	for i, id := range got {
		if id != items[i] {
			t.Fatalf("page order wrong at %d: %s", i, id)
		}
	}

	// Exact-limit page: limit == len leaves no next token.
	page, next, err := Paginate(items, self, "things", 5, "")
	if err != nil || len(page) != 5 || next != "" {
		t.Errorf("exact-limit page = %d items, next %q, err %v", len(page), next, err)
	}

	// Empty listing yields an empty page with no token.
	page, next, err = Paginate(nil, self, "things", 2, "")
	if err != nil || len(page) != 0 || next != "" {
		t.Errorf("empty listing page = %d items, next %q, err %v", len(page), next, err)
	}

	// A stale cursor (item removed) is invalid_page_token.
	_, staleNext, err := Paginate(items, self, "things", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	shrunk := append(append([]string(nil), items[:1]...), items[2:]...) // drop it-001, the cursor
	if _, _, err := Paginate(shrunk, self, "things", 2, staleNext); err == nil {
		t.Error("stale cursor accepted")
	} else {
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeInvalidPageToken {
			t.Errorf("stale cursor error = %v", err)
		}
	}

	// Oversized limits clamp rather than error.
	if _, _, err := Paginate(items, self, "things", MaxPageLimit+1, ""); err != nil {
		t.Errorf("clamped limit rejected: %v", err)
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{DatasetID: "ds-1", K: 2, WindowHours: 12.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	if got := good.WindowDuration(); got != 12*time.Hour+30*time.Minute {
		t.Errorf("WindowDuration = %v", got)
	}
	bad := []JobSpec{
		{K: 2},                 // no dataset
		{DatasetID: "d", K: 1}, // k too small
		{DatasetID: "d", K: 2, SuppressKm: -1},
		{DatasetID: "d", K: 2, WindowHours: -1},
	}
	for i, spec := range bad {
		err := spec.Validate()
		if err == nil {
			t.Errorf("bad spec %d accepted", i)
			continue
		}
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeInvalidSpec {
			t.Errorf("bad spec %d: error %v, want invalid_spec", i, err)
		}
	}
}

func TestJobEventTerminal(t *testing.T) {
	if (JobEvent{Type: EventProgress, Progress: 0.5}).Terminal() {
		t.Error("progress event terminal")
	}
	if (JobEvent{Type: EventState, State: JobRunning}).Terminal() {
		t.Error("running state terminal")
	}
	for _, s := range []JobState{JobDone, JobFailed, JobCancelled} {
		if !(JobEvent{Type: EventState, State: s}).Terminal() {
			t.Errorf("state %s not terminal", s)
		}
	}
}
