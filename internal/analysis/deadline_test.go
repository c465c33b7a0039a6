package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"
)

func TestDeadlineSinglePackage(t *testing.T) {
	const src = `package serving

import (
	"context"
	"net"
	"time"
)

func Unguarded(c net.Conn, p []byte) (int, error) {
	return c.Read(p)
}

func Guarded(c net.Conn, p []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, err
	}
	return c.Read(p)
}

func CtxGuarded(ctx context.Context, c net.Conn, p []byte) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return c.Read(p)
}

func pump(c net.Conn, p []byte) (int, error) {
	return c.Write(p)
}

func Caller(c net.Conn, p []byte) (int, error) {
	return pump(c, p)
}

type wrap struct{ inner net.Conn }

func (w *wrap) Read(p []byte) (int, error)    { return w.inner.Read(p) }
func (w *wrap) Write(p []byte) (int, error)   { return w.inner.Write(p) }
func (w *wrap) SetDeadline(t time.Time) error { return w.inner.SetDeadline(t) }

func Allowed(c net.Conn, p []byte) (int, error) {
	return c.Read(p) //cadmc:allow deadline -- caller arms the deadline
}
`
	checkAnalyzer(t, Deadline, "cadmc/fx/internal/serving", src, []want{
		{line: 10, message: "Read on a connection"},
		{line: 32, message: "pump, which blocks on connection I/O"},
	})
}

func TestDeadlineIgnoresNonTargetPackages(t *testing.T) {
	const src = `package other

import "net"

func Unguarded(c net.Conn, p []byte) (int, error) {
	return c.Read(p)
}
`
	checkAnalyzer(t, Deadline, "cadmc/internal/other", src, nil)
}

// fixtureSet type-checks a group of fixture packages that may import each
// other, mirroring how the Loader hands every package the same types.Object
// identities. Fixture imports not present in the set fall through to the
// stdlib importer.
type fixtureSet struct {
	t    *testing.T
	srcs map[string]string
	pkgs map[string]*Package
}

func newFixtureSet(t *testing.T, srcs map[string]string) *fixtureSet {
	return &fixtureSet{t: t, srcs: srcs, pkgs: make(map[string]*Package)}
}

func (fs *fixtureSet) Import(path string) (*types.Package, error) {
	if src, ok := fs.srcs[path]; ok {
		return fs.load(path, src).Types, nil
	}
	return sharedImporter.Import(path)
}

func (fs *fixtureSet) load(path, src string) *Package {
	fs.t.Helper()
	if pkg, ok := fs.pkgs[path]; ok {
		return pkg
	}
	clean := strings.NewReplacer("/", "_", ".", "_")
	name := fmt.Sprintf("%s_%s_fixture.go", clean.Replace(fs.t.Name()), clean.Replace(path))
	f, err := parser.ParseFile(sharedFset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		fs.t.Fatalf("parse fixture %s: %v", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: fs}
	tpkg, err := conf.Check(path, sharedFset, []*ast.File{f}, info)
	if err != nil {
		fs.t.Fatalf("typecheck fixture %s: %v", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  sharedFset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	}
	fs.pkgs[path] = pkg
	return pkg
}

// TestDeadlineFactsCrossPackage proves the tentpole property: a blocking
// helper in a non-target package taints its gateway-side caller through an
// exported fact, and the finding disappears when the fact set is empty.
func TestDeadlineFactsCrossPackage(t *testing.T) {
	srcs := map[string]string{
		"cadmc/fx/transport": `package transport

import "net"

// Pump blocks on c without arming any deadline; callers inherit the duty.
func Pump(c net.Conn, p []byte) (int, error) {
	return c.Read(p)
}
`,
		"cadmc/fx/internal/gateway": `package gateway

import (
	"net"

	"cadmc/fx/transport"
)

func Relay(c net.Conn, p []byte) (int, error) {
	return transport.Pump(c, p)
}
`,
	}
	fs := newFixtureSet(t, srcs)
	helper := fs.load("cadmc/fx/transport", srcs["cadmc/fx/transport"])
	target := fs.load("cadmc/fx/internal/gateway", srcs["cadmc/fx/internal/gateway"])

	suite := []*Analyzer{Deadline}
	facts := NewFactSet()
	for _, pkg := range []*Package{helper, target} {
		if err := exportFacts(pkg, suite, facts); err != nil {
			t.Fatalf("export facts on %s: %v", pkg.Path, err)
		}
	}
	if facts.Len() == 0 {
		t.Fatal("no facts exported for the blocking transport helper")
	}

	diags, err := diagnose(helper, suite, facts)
	if err != nil || len(diags) != 0 {
		t.Fatalf("transport (non-target) diags = %v, %v; want none", diags, err)
	}

	diags, err = diagnose(target, suite, facts)
	if err != nil || len(diags) != 1 {
		t.Fatalf("gateway diags = %v, %v; want exactly one", diags, err)
	}
	if diags[0].Pos.Line != 10 || !strings.Contains(diags[0].Message, "Pump") {
		t.Fatalf("gateway diag = %v; want the Pump call on line 10", diags[0])
	}

	diags, err = diagnose(target, suite, NewFactSet())
	if err != nil || len(diags) != 0 {
		t.Fatalf("factless diags = %v, %v; want none (the finding must flow from the fact)", diags, err)
	}
}

// A guard armed on only one branch does not dominate the blocking call: the
// old source-order scan accepted any guard textually before the call and
// missed exactly this shape. Guards on every branch of the split do cover
// the join.
func TestDeadlinePathSensitiveGuard(t *testing.T) {
	const src = `package serving

import (
	"net"
	"time"
)

func HalfGuarded(c net.Conn, p []byte, armed bool) (int, error) {
	if armed {
		if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return 0, err
		}
	}
	return c.Read(p)
}

func BothGuarded(c net.Conn, p []byte, short bool) (int, error) {
	if short {
		if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return 0, err
		}
	} else {
		if err := c.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
			return 0, err
		}
	}
	return c.Read(p)
}
`
	checkAnalyzer(t, Deadline, "cadmc/fx/internal/serving", src, []want{
		{line: 14, message: "Read on a connection"},
	})
}

// A frame read through io.ReadFull parks exactly like conn.Read, and it is
// the only way serving's codec reads: without it a SetReadDeadline stripped
// from the connection handler goes unreported. A plain io.Reader is not a
// connection and stays out of scope.
func TestDeadlineReadFull(t *testing.T) {
	const src = `package serving

import (
	"io"
	"net"
	"time"
)

func ReadFrame(c net.Conn, hdr []byte) error {
	_, err := io.ReadFull(c, hdr)
	return err
}

func ReadFrameGuarded(c net.Conn, hdr []byte) error {
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := io.ReadFull(c, hdr)
	return err
}

func ReadBuffered(r io.Reader, hdr []byte) error {
	_, err := io.ReadFull(r, hdr)
	return err
}
`
	checkAnalyzer(t, Deadline, "cadmc/fx/internal/serving", src, []want{
		{line: 10, message: "io.ReadFull on a connection"},
	})
}
