package videodvfs

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFacadeFunctionsHaveCallers is the facade's reachability rule
// (DESIGN.md §5): every exported function of this package must be called
// as videodvfs.<Name> from a non-test Go file under cmd/, examples/ or
// bench/e2e. A function only tests call is not public API.
func TestFacadeFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	if len(funcs) == 0 {
		t.Fatal("found no exported functions in the facade")
	}

	called := map[string]bool{}
	for _, dir := range []string{"cmd", "examples", filepath.Join("bench", "e2e")} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "videodvfs" {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, fn := range funcs {
		if !called[fn] {
			t.Errorf("videodvfs.%s has no caller in a non-test file under cmd/, examples/ or bench/e2e", fn)
		}
	}
}

// TestReadmeGoBlocks keeps README.md's Go snippets compiling: each
// ```go block must appear, line for line after trimming indentation, as
// a contiguous run inside the body of one Example function in
// example_test.go.
func TestReadmeGoBlocks(t *testing.T) {
	blocks := readmeGoBlocks(t)
	if len(blocks) == 0 {
		t.Fatal("README.md has no ```go blocks")
	}
	bodies := exampleBodies(t)
	for _, block := range blocks {
		found := false
		for _, body := range bodies {
			if containsRun(body, block) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("README Go block is not the body of any Example in example_test.go:\n%s",
				strings.Join(block, "\n"))
		}
	}
}

// readmeGoBlocks returns README.md's ```go blocks, one trimmed line per
// element.
func readmeGoBlocks(t *testing.T) [][]string {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var blocks [][]string
	var cur []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case !in && line == "```go":
			in, cur = true, nil
		case in && line == "```":
			in = false
			blocks = append(blocks, cur)
		case in:
			cur = append(cur, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if in {
		t.Fatal("README.md ends inside a ```go block")
	}
	return blocks
}

// exampleBodies returns the body of every Example function in
// example_test.go, one trimmed line per element, braces excluded.
func exampleBodies(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name.Name, "Example") || fn.Body == nil {
			continue
		}
		lo := fset.Position(fn.Body.Lbrace).Offset + 1
		hi := fset.Position(fn.Body.Rbrace).Offset
		var body []string
		for _, line := range strings.Split(strings.Trim(string(src[lo:hi]), "\n"), "\n") {
			body = append(body, strings.TrimSpace(line))
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// containsRun reports whether want appears in lines as a contiguous run.
func containsRun(lines, want []string) bool {
	for i := 0; i+len(want) <= len(lines); i++ {
		if slices.Equal(lines[i:i+len(want)], want) {
			return true
		}
	}
	return false
}
