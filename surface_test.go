package discfs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// optionSurface is every With* option the package exports, each with
// the non-test caller or deployment need that keeps it. An option is
// justified when two callers that exist need different values, or when
// it is a deployment setting (an address, a path, a credential); a new
// one belongs here only with such a line, reviewed.
var optionSurface = map[string]string{
	// server
	"WithBacking":           "cmd/discfsd, every example, benchmark/stack.go: which store to export",
	"WithPolicyText":        "cmd/discfsd -policy, examples/anonweb: site policy is a credential",
	"WithAdmins":            "cmd/discfsd -admins: peer server keys of a federation",
	"WithCacheSize":         "cmd/discfsd -cache, examples, benchmark/stack.go (search runs the paper's 128)",
	"WithAudit":             "cmd/discfsd -audit: where the audit trail goes",
	"WithServerWriteBehind": "cmd/discfsd -write-behind (off), benchmark/stack.go (on)",
	"WithServerDedup":       "cmd/discfsd -dedup (off by default, on for stores with duplicate data)",
	"WithClock":             "examples/timeofday, examples/websales: time-dependent policy under a fake clock",
	"WithServerLimits":      "cmd/discfsd -limit-rps/-limit-inflight: per-deployment admission budget",
	"WithServerPeers":       "cmd/discfsd -fed-peers: addresses of the revocation-feed peers",
	// client
	"WithNoDataCache":  "benchmark/baseline.go: the nocache stack datacache.gain_ratio is measured against",
	"WithServers":      "deployment: addresses of the other discfsd shards (the ones -fed-subtree serves; internal/core TestFedSpreadNames runs the core form)",
	"WithShardSubtree": "deployment: which directory is hashed across shards (pairs with discfsd -fed-subtree)",
	"WithGraft":        "deployment: which path is mounted from which shard",
	// store
	"WithBlockSize":  "cmd/discfsd -bs; tests run real 1 KiB and 4 KiB geometries",
	"WithNumBlocks":  "cmd/discfsd -blocks: device capacity",
	"WithEncryption": "cmd/discfsd -encrypt/-passphrase: the CFS key is a credential",
}

// TestOptionSurface pins the exported option set so a knob cannot come
// back unreviewed: it parses the package's own sources and compares the
// exported With* functions against optionSurface.
func TestOptionSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["discfs"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				got = append(got, fn.Name.Name)
			}
		}
	}
	sort.Strings(got)
	want := make([]string, 0, len(optionSurface))
	for name := range optionSurface {
		want = append(want, name)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported With* options changed:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}
