package history

import (
	"path/filepath"
	"testing"
)

func TestParseRunRef(t *testing.T) {
	cases := []struct {
		ref            string
		version, runID string
		wantErr        bool
	}{
		{ref: "A:run1", version: "A", runID: "run1"},
		{ref: ":run1", version: "", runID: "run1"},
		{ref: "v2:base:extra", version: "v2", runID: "base:extra"},
		{ref: "run1", wantErr: true},
		{ref: "", wantErr: true},
		{ref: "A:", wantErr: true},
	}
	for _, c := range cases {
		version, runID, err := ParseRunRef(c.ref)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseRunRef(%q): want error, got (%q, %q)", c.ref, version, runID)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRunRef(%q): %v", c.ref, err)
			continue
		}
		if version != c.version || runID != c.runID {
			t.Errorf("ParseRunRef(%q) = (%q, %q), want (%q, %q)", c.ref, version, runID, c.version, c.runID)
		}
	}
}

func TestParseRunKey(t *testing.T) {
	key, err := ParseRunKey("poisson", "B:base")
	if err != nil {
		t.Fatal(err)
	}
	want := RecordKey{App: "poisson", Version: "B", RunID: "base"}
	if key != want {
		t.Fatalf("ParseRunKey = %+v, want %+v", key, want)
	}
	if key.Ref() != "B:base" {
		t.Fatalf("Ref() = %q, want B:base", key.Ref())
	}
	if _, err := ParseRunKey("", "B:base"); err == nil {
		t.Fatal("ParseRunKey with empty app: want error")
	}
	if _, err := ParseRunKey("poisson", "base"); err == nil {
		t.Fatal("ParseRunKey without colon: want error")
	}
}

func TestOpenStoreMissingDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-store")
	if _, err := OpenStoreDurable(missing, DurableOptions{}); err == nil {
		t.Fatal("OpenStoreDurable on a missing directory: want error, got nil")
	}
	// NewStore keeps its create-if-needed contract.
	st, err := NewStore(missing)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("fresh store Len = %d, want 0", st.Len())
	}
	// Once created, OpenStoreDurable succeeds.
	if _, err := OpenStoreDurable(missing, DurableOptions{}); err != nil {
		t.Fatalf("OpenStoreDurable after create: %v", err)
	}
}
