// Command switchlint guards the method-registry refactor: every
// per-method dispatch must live in internal/method's descriptors, so a
// switch over the method enum or over the wire-family strings anywhere
// else is a regression. It walks the module's non-test Go sources
// (internal/method and scripts excluded) and fails on:
//
//   - a switch whose case arms reference method-enum identifiers
//     qualified by the build or method packages (e.g. `case method.SAP0:`)
//   - a switch with two or more case arms matching the wire-family
//     string literals "histogram"/"wavelet"
//
// Usage (from the module root, as CI does):
//
//	go run ./scripts/switchlint
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// methodIdents are the registry's enum identifiers; a case arm naming one
// through the build or method package is a per-method dispatch.
var methodIdents = map[string]bool{
	"Naive": true, "EquiWidth": true, "EquiDepth": true, "MaxDiff": true,
	"VOptimal": true, "PointOpt": true, "A0": true, "SAP0": true,
	"SAP1": true, "OptA": true, "OptARounded": true, "WaveTopBB": true,
	"WaveRangeOpt": true, "WaveAA2D": true, "PrefixOpt": true, "SAP2": true,
	"Segmented": true,
}

var familyStrings = map[string]bool{"histogram": true, "wavelet": true, "segmented": true}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git":
				return filepath.SkipDir
			}
			rel := filepath.ToSlash(path)
			if strings.HasSuffix(rel, "internal/method") || strings.HasSuffix(rel, "scripts") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		findings = append(findings, lintFile(path)...)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "switchlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "switchlint: %d per-method dispatch(es) outside internal/method; move them into registry descriptors\n", len(findings))
		os.Exit(1)
	}
}

func lintFile(path string) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", path, err)}
	}
	var findings []string
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		enumHits, families := 0, map[string]bool{}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, expr := range cc.List {
				ast.Inspect(expr, func(e ast.Node) bool {
					switch v := e.(type) {
					case *ast.SelectorExpr:
						pkg, ok := v.X.(*ast.Ident)
						if ok && (pkg.Name == "build" || pkg.Name == "method") && methodIdents[v.Sel.Name] {
							enumHits++
						}
					case *ast.BasicLit:
						if v.Kind == token.STRING {
							if s, err := strconv.Unquote(v.Value); err == nil && familyStrings[s] {
								families[s] = true
							}
						}
					}
					return true
				})
			}
		}
		pos := fset.Position(sw.Pos())
		if enumHits > 0 {
			findings = append(findings, fmt.Sprintf("%s:%d: switch dispatches on the method enum (%d case references)", pos.Filename, pos.Line, enumHits))
		}
		if len(families) >= 2 {
			findings = append(findings, fmt.Sprintf("%s:%d: switch dispatches on wire-family strings", pos.Filename, pos.Line))
		}
		return true
	})
	return findings
}
