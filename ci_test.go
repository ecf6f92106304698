package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCIPatternsNameTests parses .github/workflows/ci.yml and fails on
// a test selector that selects nothing: a `-run` alternative, the
// top-level part of a `-bench` alternative, or a fuzz-matrix target
// that names no function in the _test.go files of the packages its
// step lists. `go test -run X` passes when X matches no test, so a
// renamed test would otherwise drop out of its CI step unnoticed. An
// alternative needs a match in one of the step's packages, not in
// each; `^$` (run no tests) is skipped.
func TestCIPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package dir -> test function names
	namesIn := func(dir string) []string {
		if names, ok := funcs[dir]; ok {
			return names
		}
		names, err := testFuncs(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		funcs[dir] = names
		return names
	}

	checked := 0
	var fuzzPkg string
	for n, line := range strings.Split(string(raw), "\n") {
		where := "ci.yml:" + strconv.Itoa(n+1)
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			continue
		}
		// The fuzz matrix: a "- pkg:" entry followed by its "target:".
		if v, ok := strings.CutPrefix(trimmed, "- pkg:"); ok {
			fuzzPkg = strings.TrimSpace(v)
			continue
		}
		if v, ok := strings.CutPrefix(trimmed, "target:"); ok && fuzzPkg != "" {
			target := strings.TrimSpace(v)
			if !slices.Contains(namesIn(fuzzPkg), target) {
				t.Errorf("%s: fuzz target %s names no function in %s", where, target, fuzzPkg)
			}
			fuzzPkg = ""
			checked++
			continue
		}
		_, cmd, ok := strings.Cut(trimmed, "go test ")
		if !ok {
			continue
		}
		var pkgs []string
		var selectors [][2]string // flag, pattern
		args := shellWords(cmd)
		for i := 0; i < len(args); i++ {
			a := args[i]
			if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
				continue
			}
			for _, flag := range []string{"-run", "-bench"} {
				if a == flag && i+1 < len(args) {
					selectors = append(selectors, [2]string{flag, args[i+1]})
					i++
				} else if v, ok := strings.CutPrefix(a, flag+"="); ok {
					selectors = append(selectors, [2]string{flag, v})
				}
			}
		}
		var dirs []string
		for _, p := range pkgs {
			dirs = append(dirs, packageDirs(t, p)...)
		}
		for _, sel := range selectors {
			flag, pattern := sel[0], sel[1]
			if pattern == "^$" {
				continue
			}
			prefixes := []string{"Test", "Fuzz", "Example"}
			if flag == "-bench" {
				prefixes = []string{"Benchmark"}
			}
			// The part before the first slash selects top-level names.
			for _, alt := range splitTop(splitTop(pattern, '/')[0], '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %s %q: %v", where, flag, alt, err)
					continue
				}
				found := false
				for _, dir := range dirs {
					for _, name := range namesIn(dir) {
						if hasAnyPrefix(name, prefixes) && re.MatchString(name) {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("%s: %s alternative %q names no function in %v", where, flag, alt, pkgs)
				}
				checked++
			}
		}
	}
	// A parser that read nothing would pass everything.
	if checked < 20 {
		t.Fatalf("checked only %d selectors in ci.yml; the parser no longer reads it", checked)
	}
}

// testFuncs lists the top-level function names in dir's _test.go files.
func testFuncs(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names, nil
}

// packageDirs resolves a go test package argument ("." or "./x", or
// "./x/..." for every directory under x) to directories.
func packageDirs(t *testing.T, pkg string) []string {
	root, ok := strings.CutSuffix(pkg, "/...")
	if !ok {
		return []string{pkg}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// shellWords splits a command line on blanks, honouring single and
// double quotes and dropping them.
func shellWords(s string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// splitTop splits s at every sep outside brackets and parentheses.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
