package scenario

import (
	"testing"
)

// TestParseSubmission pins ParseSubmission's specs, its sweep flag and its
// error texts, which are the service's 400 answers to a bad POST /v1/jobs
// body and the CLI's to a bad -submit file.
func TestParseSubmission(t *testing.T) {
	const (
		a   = `{"name":"a","n":6,"k":2,"router":"dimorder","workload":{"kind":"random","seed":1}}`
		b   = `{"name":"b","n":6,"k":1,"router":"thm15","workload":{"kind":"reversal"}}`
		bad = `{"n":6,"bogus":1}`
	)
	cases := []struct {
		name  string
		body  string
		names []string
		sweep bool
		err   string
	}{
		{name: "single", body: a, names: []string{"a"}},
		{name: "single with leading space", body: "\n  " + a, names: []string{"a"}},
		{name: "sweep", body: "[" + a + "," + b + "]", names: []string{"a", "b"}, sweep: true},
		{name: "sweep of one", body: "[" + b + "]", names: []string{"b"}, sweep: true},
		{name: "whitespace before [", body: " \r\n\t[" + a + "]", names: []string{"a"}, sweep: true},
		{name: "empty body", body: "", err: "scenario: parse: EOF"},
		{name: "blank body", body: " \n", err: "scenario: parse: EOF"},
		{name: "empty sweep", body: "[]", sweep: true, err: "empty sweep"},
		{name: "malformed array", body: "[" + a + ",", sweep: true, err: "parse sweep: unexpected end of JSON input"},
		{name: "bad element", body: "[" + a + "," + bad + "]", sweep: true, err: `sweep spec 1: scenario: parse: json: unknown field "bogus"`},
		{name: "non-object element", body: "[1]", sweep: true, err: "sweep spec 0: scenario: parse: json: cannot unmarshal number into Go value of type scenario.Spec"},
		{name: "bad single", body: bad, err: `scenario: parse: json: unknown field "bogus"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs, sweep, err := ParseSubmission([]byte(tc.body))
			if sweep != tc.sweep {
				t.Errorf("sweep %v, want %v", sweep, tc.sweep)
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("error %v, want %q", err, tc.err)
				}
				if specs != nil {
					t.Errorf("specs %v returned with the error", specs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(specs) != len(tc.names) {
				t.Fatalf("%d specs, want %d", len(specs), len(tc.names))
			}
			for i, s := range specs {
				if s.Name != tc.names[i] {
					t.Errorf("spec %d is %q, want %q", i, s.Name, tc.names[i])
				}
			}
		})
	}
}
