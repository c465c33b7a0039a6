package analysis

import (
	"go/build"
	"path/filepath"
	"testing"
)

// TestLoaderHonoursBuildConstraints: testdata/buildtags declares Arch in
// f_amd64.go and again in a `//go:build !amd64` twin. Type-checking both
// would fail with "Arch redeclared"; the loader must pick exactly the file
// the go tool builds for the current GOARCH, as `go build` does.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "buildtags"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("buildtags")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want := "f_other.go"
	if build.Default.GOARCH == "amd64" {
		want = "f_amd64.go"
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want only %s", len(pkg.Files), want)
	}
	if got := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename); got != want {
		t.Fatalf("loaded %s, want %s", got, want)
	}
	if pkg.Types.Scope().Lookup("Arch") == nil {
		t.Fatal("Arch not declared")
	}
}
