package main

import (
	"strings"
	"testing"

	"sparkgo/internal/report"
)

func TestRunExperimentsSelection(t *testing.T) {
	var ran []string
	exp := func(id string) experiment {
		return experiment{id, func() (*report.Table, error) {
			ran = append(ran, id)
			return nil, nil
		}}
	}
	all := []experiment{exp("E1"), exp("E5"), exp("E8"), exp("A")}
	for _, c := range []struct {
		args   []string
		status int
		ran    string
		stderr string
	}{
		{nil, 0, "E1 E5 E8 A", ""},
		{[]string{"a", "e1"}, 0, "E1 A", ""},
		{[]string{"E6", "E11"}, 0, "E5 E8", ""},
		{[]string{"E99"}, 2, "", "unknown experiment E99; valid ids: E1 E5 E8 A"},
		{[]string{"E1", "bogus", "E98"}, 2, "", "unknown experiment bogus, E98; valid ids:"},
	} {
		ran = nil
		var stderr strings.Builder
		status := runExperiments(all, c.args, func(*report.Table) {}, &stderr)
		if status != c.status || strings.Join(ran, " ") != c.ran {
			t.Errorf("%q: status %d, ran %q; want %d, %q", c.args, status, ran, c.status, c.ran)
		}
		if got := stderr.String(); c.stderr == "" && got != "" || !strings.Contains(got, c.stderr) {
			t.Errorf("%q: stderr %q, want it to contain %q", c.args, got, c.stderr)
		}
	}
}
