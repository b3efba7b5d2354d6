package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("10, 20,30")
	if err != nil || len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Errorf("parseInts: %v %v", got, err)
	}
	if _, err := parseInts("10,x"); err == nil {
		t.Error("bad element must fail")
	}
}

func TestBudgetStr(t *testing.T) {
	if budgetStr(0) != "unlimited" || budgetStr(-1) != "unlimited" {
		t.Error("unlimited rendering")
	}
	if budgetStr(42) != "42" {
		t.Error("numeric rendering")
	}
}

// tiny is a scale at which one experiment takes well under a second.
var tiny = []string{"-movies", "300", "-profiles", "1", "-queries", "1"}

// TestRunTable1 drives the whole tool once: one experiment, a table on
// stdout, a JSON summary on disk, nothing on stderr.
func TestRunTable1(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "s.json")
	var stdout, stderr bytes.Buffer
	args := append([]string{"-exp", "table1", "-json", jsonPath}, tiny...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	for _, want := range []string{"workload: 300 movies", "table1", "wrote " + jsonPath} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, &stdout)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr not empty: %s", &stderr)
	}
}

// TestRunErrors: every way of asking for something the tool does not do is
// one clean error — in particular a removed mode's flag or a stray word
// must not fall through to running every figure.
func TestRunErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown experiment", append([]string{"-exp", "nope"}, tiny...), "nope"},
		{"unwritable json", append([]string{"-exp", "table1", "-json", filepath.Join(t.TempDir(), "no", "such", "s.json")}, tiny...), "s.json"},
		{"removed flag", []string{"-herd", "1"}, "flag provided but not defined: -herd"},
		{"stray positional argument", []string{"herd", "64"}, `unexpected argument "herd"`},
		{"bad ks", []string{"-ks", "10,x"}, "bad -ks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("accepted; stdout:\n%s", &stdout)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}
