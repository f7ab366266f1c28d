package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodLines = `{"schema":3,"round":1,"iter":5,"t0":5,"alive":3,"dur_ms":1,"msgs":6,"bytes":480,"update_norm":0.5,"dispersion":0.1,"cum":{"rounds":1,"messages":6,"bytes":480,"dropped":0,"rejoined":0,"rejected":0,"skipped_rounds":0,"stale_applied":0,"stale_dropped":0}}
{"schema":3,"round":2,"iter":10,"t0":5,"alive":3,"dur_ms":1,"msgs":6,"bytes":480,"update_norm":0.4,"dispersion":0.1,"stale_applied":1,"cum":{"rounds":2,"messages":12,"bytes":960,"dropped":0,"rejoined":0,"rejected":0,"skipped_rounds":0,"stale_applied":1,"stale_dropped":0}}
`

// checkLines runs obscheck on a file holding lines.
func checkLines(t *testing.T, lines string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{path}, &out)
	return out.String(), err
}

func TestValidateAccepts(t *testing.T) {
	out, err := checkLines(t, goodLines)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "ok: 2 records, 2 rounds (0 skipped), 12 messages, 960 bytes,") || !strings.Contains(out, " 1 stale applied,") {
		t.Errorf("out = %q", out)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"empty input": "",
		"bad json":    "{nope}\n",
		"wrong schema": `{"schema":9,"round":1,"iter":5,"msgs":0,"bytes":0,"cum":{}}
`,
		"round not increasing": `{"schema":3,"round":2,"iter":5,"msgs":0,"bytes":0,"cum":{}}
{"schema":3,"round":2,"iter":10,"msgs":0,"bytes":0,"cum":{}}
`,
		"iter regression": `{"schema":3,"round":1,"iter":10,"msgs":0,"bytes":0,"cum":{}}
{"schema":3,"round":2,"iter":5,"msgs":0,"bytes":0,"cum":{}}
`,
		"cum regression": `{"schema":3,"round":1,"iter":5,"msgs":2,"bytes":16,"cum":{"rounds":1,"messages":2,"bytes":16}}
{"schema":3,"round":2,"iter":10,"msgs":2,"bytes":16,"cum":{"rounds":2,"messages":1,"bytes":32}}
`,
		"stale cum regression": `{"schema":3,"round":1,"iter":5,"msgs":2,"bytes":16,"cum":{"rounds":1,"messages":2,"bytes":16,"stale_applied":3}}
{"schema":3,"round":2,"iter":10,"msgs":2,"bytes":16,"cum":{"rounds":2,"messages":4,"bytes":32,"stale_applied":2}}
`,
		"delta sum mismatch": `{"schema":3,"round":1,"iter":5,"msgs":2,"bytes":16,"cum":{"rounds":1,"messages":5,"bytes":16}}
`,
	}
	for name, input := range cases {
		if _, err := checkLines(t, input); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
