package main

import (
	"net/http"
	"strings"
	"testing"

	"gridbcast/internal/service"
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
		{"timeout-over-cap", []string{"-platform", "g=grid5000", "-timeout", "5m0.001s"}, "exceeds the planning deadline cap 5m0s"},
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
// slow-header client holds a connection forever. WriteTimeout must outlast
// the longest deadline a request may ask for, or it would cut off the reply
// of a build that met its deadline.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("timeouts not set: read-header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout <= hs.ReadTimeout+service.MaxDeadline {
		t.Errorf("WriteTimeout = %v, want more than read %v + deadline cap %v",
			hs.WriteTimeout, hs.ReadTimeout, service.MaxDeadline)
	}
	if hs.Addr != ":0" || hs.Handler == nil {
		t.Errorf("server not wired: addr %q, handler %v", hs.Addr, hs.Handler)
	}
}
