package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	gridbcast "gridbcast"
	"gridbcast/internal/topology"
)

func TestParsePlatformSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    PlatformSpec
		wantErr bool
	}{
		{in: "lab=lab.fits", want: PlatformSpec{Name: "lab", Source: "lab.fits"}},
		{in: " g5k = grid5000 ", want: PlatformSpec{Name: "g5k", Source: "grid5000"}},
		{in: "rnd=random:7:5", want: PlatformSpec{Name: "rnd", Source: "random:7:5"}},
		{in: "noequals", wantErr: true},
		{in: "=grid5000", wantErr: true},
		{in: "name=", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParsePlatformSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePlatformSpec(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParsePlatformSpec(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
}

func TestLoadGridSource(t *testing.T) {
	g, err := LoadGridSource("Grid5000")
	if err != nil || g.N() != gridbcast.Grid5000().N() {
		t.Fatalf("grid5000 source: %v", err)
	}
	if g, err = LoadGridSource("random:7:5"); err != nil || g.N() != 5 {
		t.Fatalf("random source: grid %v err %v", g, err)
	}
	for _, bad := range []string{"random:7", "random:x:5", "random:7:0", "random:1:4097", "random:1:1000000", "no-such-file.json"} {
		if _, err := LoadGridSource(bad); err == nil {
			t.Errorf("LoadGridSource(%q): want error", bad)
		}
	}

	dir := t.TempDir()
	fits := filepath.Join(dir, "m.fits")
	f, err := os.Create(fits)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.WriteFits(f, gridbcast.Grid5000()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err = LoadGridSource(fits)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Fingerprint(), gridbcast.Grid5000().Fingerprint(); got != want {
		t.Fatalf("fits round-trip fingerprint %x, want %x", got, want)
	}
}

func TestRegistryLoadAndLookup(t *testing.T) {
	reg, err := NewRegistry([]PlatformSpec{
		{Name: "g5k", Source: "grid5000"},
		{Name: "rnd", Source: "random:3:4"},
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if gen := reg.Generation(); gen != 1 {
		t.Fatalf("fresh registry generation %d, want 1", gen)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "g5k" || got[1] != "rnd" {
		t.Fatalf("Names() = %v", got)
	}
	p, ok := reg.Lookup("g5k")
	if !ok || p.Session == nil || p.Generation != 1 {
		t.Fatalf("Lookup(g5k) = %+v, %v", p, ok)
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}

	if _, err := NewRegistry(nil, 64); err == nil {
		t.Fatal("empty registry: want error")
	}
	if _, err := NewRegistry([]PlatformSpec{
		{Name: "a", Source: "grid5000"}, {Name: "a", Source: "grid5000"},
	}, 64); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names: err %v", err)
	}
	if _, err := NewRegistry([]PlatformSpec{{Name: "a", Source: "missing.json"}}, 64); err == nil {
		t.Fatal("unloadable platform: want error")
	}
}

// TestRegistryReload pins the generation-swap contract: a successful
// reload bumps the generation and replaces the sessions; a failed reload
// (source file gone bad underneath) leaves the old table serving.
func TestRegistryReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := gridbcast.Grid5000().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry([]PlatformSpec{{Name: "p", Source: path}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := reg.Lookup("p")

	// Swap the file for a different (still valid) platform: reload must
	// pick it up in a fresh session at generation 2.
	if err := gridbcast.RandomGrid(9, 6).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	gen, err := reg.Reload()
	if err != nil || gen != 2 {
		t.Fatalf("Reload() = %d, %v; want 2, nil", gen, err)
	}
	after, _ := reg.Lookup("p")
	if after.Session == before.Session || after.Generation != 2 {
		t.Fatalf("reload did not swap the session (gen %d)", after.Generation)
	}
	if after.Session.Grid().N() != 6 {
		t.Fatalf("reload served stale grid: %d clusters", after.Session.Grid().N())
	}
	// The handed-out pre-reload platform still plans fine.
	if _, err := before.Session.Plan(gridbcast.NewRequest(gridbcast.WithSize(1 << 20))); err != nil {
		t.Fatalf("pre-reload session broken after reload: %v", err)
	}

	// Corrupt the file: reload fails, generation and table are untouched.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	gen, err = reg.Reload()
	if err == nil {
		t.Fatal("reload of corrupt source: want error")
	}
	if gen != 2 || reg.Generation() != 2 {
		t.Fatalf("failed reload moved generation: %d", reg.Generation())
	}
	if cur, _ := reg.Lookup("p"); cur.Session != after.Session {
		t.Fatal("failed reload swapped the table")
	}
}
