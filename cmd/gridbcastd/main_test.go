package main

import (
	"net/http"
	"strings"
	"testing"
)

// TestRunConfigErrors pins the daemon's fail-fast paths: they must all
// return descriptive errors before any listener is opened.
func TestRunConfigErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		contains string
	}{
		{"no-platforms", nil, "no platforms configured"},
		{"bad-spec", []string{"-platform", "nameonly"}, "want name=source"},
		{"unloadable", []string{"-platform", "x=missing.json"}, "missing.json"},
		{"bad-random", []string{"-platform", "x=random:1"}, "random:<seed>:<clusters>"},
		{"bad-flag", []string{"-nope"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil || !strings.Contains(err.Error(), c.contains) {
				t.Fatalf("run(%v) = %v, want error containing %q", c.args, err, c.contains)
			}
		})
	}
}

// TestHTTPServerTimeouts pins the connection timeouts: without them a
// slow-header client holds a connection forever. WriteTimeout is left unset
// on purpose (see newHTTPServer).
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("timeouts not set: read-header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset", hs.WriteTimeout)
	}
	if hs.Addr != ":0" || hs.Handler == nil {
		t.Errorf("server not wired: addr %q, handler %v", hs.Addr, hs.Handler)
	}
}
