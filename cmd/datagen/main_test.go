package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestFlagParsing(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-nope"}},
		{"bad count", []string{"-n", "many"}},
		{"unknown dataset", []string{"-dataset", "bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-"))
			var stdout, stderr bytes.Buffer
			err := run(append(tc.args, "-out", out), &stdout, &stderr)
			if !errors.Is(err, errUsage) {
				t.Fatalf("run = %v, want a usage error", err)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a rejected command line left %s behind (stat: %v)", out, err)
			}
		})
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Errorf("-h: run = %v, want nil", err)
	}
}

// TestGoldenCloud writes three Cloud records, to stdout and to a file,
// and holds both to the checked-in lines, which ParseCloudLine accepts.
func TestGoldenCloud(t *testing.T) {
	want, err := os.ReadFile("testdata/cloud3.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "cloud", "-n", "3"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("stdout:\n%s\nwant:\n%s", stdout.Bytes(), want)
	}
	out := filepath.Join(t.TempDir(), "cloud.csv")
	if err := run([]string{"-dataset", "cloud", "-n", "3", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n%s\nwant:\n%s", out, got, want)
	}
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	for _, line := range lines {
		if _, _, _, ok := datagen.ParseCloudLine([]byte(line)); !ok {
			t.Errorf("ParseCloudLine rejects %q", line)
		}
	}
}

// TestWriteFailure: an output that cannot be written fails the command
// instead of exiting 0 with the data lost.
func TestWriteFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-out", t.TempDir()}, &stdout, &stderr); err == nil || errors.Is(err, errUsage) {
		t.Errorf("-out naming a directory: run = %v, want an I/O error", err)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a flush on")
	}
	if err := run([]string{"-dataset", "cloud", "-n", "3", "-out", "/dev/full"}, &stdout, &stderr); err == nil {
		t.Error("writing to /dev/full: run = nil, want the flush error")
	}
}
