package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cqp"
	"cqp/internal/server"
)

func TestBuildDBSynthetic(t *testing.T) {
	db, _, err := buildDB("mem", "", "", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.MustTable("MOVIE").RowCount(); n != 200 {
		t.Fatalf("MOVIE rows = %d, want 200", n)
	}
}

// TestBuildDBFromCSV dumps a synthetic database relation-by-relation and
// reloads it via -csv, checking row counts survive the round trip.
func TestBuildDBFromCSV(t *testing.T) {
	src := cqp.SyntheticMovieDB(150, 3)
	dir := t.TempDir()
	for _, rel := range src.Schema().RelationNames() {
		f, err := os.Create(filepath.Join(dir, strings.ToLower(rel)+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		err = cqp.DumpCSV(src, rel, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	db, _, err := buildDB("mem", "", dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range src.Schema().RelationNames() {
		want := src.MustTable(rel).RowCount()
		got := db.MustTable(rel).RowCount()
		if got != want {
			t.Errorf("%s: %d rows after round trip, want %d", rel, got, want)
		}
	}
}

func TestBuildDBMissingCSV(t *testing.T) {
	if _, _, err := buildDB("mem", "", t.TempDir(), 0, 0); err == nil {
		t.Fatal("empty data dir accepted")
	}
}

// TestBuildDBDisk seeds a block store on first start and serves the same
// rows from the persisted pages on the second.
func TestBuildDBDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, store, err := buildDB("disk", dir, "", 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		t.Fatal("disk backend returned no store")
	}
	want := db.MustTable("MOVIE").RowCount()
	if want != 150 {
		t.Fatalf("MOVIE rows = %d, want 150", want)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Second start must reopen, not regenerate: ask for a different size
	// and still see the persisted one.
	db2, store2, err := buildDB("disk", dir, "", 9999, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := db2.MustTable("MOVIE").RowCount(); got != want {
		t.Fatalf("reopened MOVIE rows = %d, want persisted %d", got, want)
	}
}

func TestBuildDBUnknownBackend(t *testing.T) {
	if _, _, err := buildDB("tape", "", "", 10, 1); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("n1=http://10.0.0.1:8344, n2=10.0.0.2:8344 ,n3=http://h3:8344/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"n1": "http://10.0.0.1:8344",
		"n2": "http://10.0.0.2:8344", // scheme defaulted
		"n3": "http://h3:8344",       // trailing slash trimmed
	}
	if len(peers) != len(want) {
		t.Fatalf("parsed %v, want %v", peers, want)
	}
	for id, url := range want {
		if peers[id] != url {
			t.Fatalf("peer %s = %q, want %q", id, peers[id], url)
		}
	}

	for _, bad := range []string{"", "n1", "=http://x", "n1=", "n1=a,n1=b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("parsePeers(%q) accepted", bad)
		}
	}
}

// TestValidateStartup: every impossible flag combination dies with one
// actionable line naming the flag to fix.
func TestValidateStartup(t *testing.T) {
	peers := "n1=http://h1:1,n2=http://h2:1"
	cases := []struct {
		name                string
		args                []string
		nodeID, peers, data string
		replicate           bool
		spill               int64
		wantErr             string
	}{
		{name: "standalone ok"},
		{name: "cluster ok", nodeID: "n1", peers: peers, data: "d", replicate: true},
		{name: "cluster without replication ok", nodeID: "n1", peers: peers},
		{name: "stray positional argument", args: []string{"coalesce=false"}, wantErr: "unexpected argument"},
		{name: "negative spill", spill: -1, wantErr: "-spill"},
		{name: "node-id without peers", nodeID: "n1", wantErr: "-peers"},
		{name: "peers without node-id", peers: peers, wantErr: "-node-id"},
		{name: "node-id not in peers", nodeID: "nx", peers: peers, wantErr: "not in -peers"},
		{name: "replicate without peers", replicate: true, wantErr: "-replicate needs a cluster"},
		{name: "replicate without data", nodeID: "n1", peers: peers, replicate: true, wantErr: "-replicate needs -data"},
		{name: "malformed peers", nodeID: "n1", peers: "garbage", wantErr: "id=url"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := validateStartup(c.args, c.nodeID, c.peers, c.replicate, c.data, c.spill)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if c.peers != "" && len(got) != 2 {
					t.Fatalf("peer map: %v", got)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted")
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

func TestValidateClusterKnobs(t *testing.T) {
	cases := []struct {
		name                       string
		replicas, strikes, handoff int
		wantErr                    string
	}{
		{name: "defaults", replicas: 2, strikes: 1, handoff: 20000},
		{name: "r3", replicas: 3, strikes: 2, handoff: 1},
		{name: "zero replicas", replicas: 0, strikes: 1, handoff: 1, wantErr: "-replicas"},
		{name: "absurd replicas", replicas: 10, strikes: 1, handoff: 1, wantErr: "-replicas"},
		{name: "zero strikes", replicas: 2, strikes: 0, handoff: 1, wantErr: "-peer-strikes"},
		{name: "zero handoff rate", replicas: 2, strikes: 1, handoff: 0, wantErr: "-handoff-rate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateClusterKnobs(c.replicas, c.strikes, c.handoff)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestPreloadProfile(t *testing.T) {
	srv, err := server.New(cqp.SyntheticMovieDB(100, 1), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := preloadProfile(srv, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.ID != "default" || sp.Profile.Len() == 0 {
		t.Fatalf("preloaded %+v", sp)
	}
	if _, ok := srv.Profiles().Get("default"); !ok {
		t.Fatal("preloaded profile not in store")
	}
}
