package tusim_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The documents whose names must resolve against the tree. CI's
// workflow is one: `go test -run Pattern` passes when nothing matches,
// so a step naming a renamed test would pass silently.
var namingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// matches returns the first submatch of every match of re in text,
// deduplicated and sorted.
func matches(re *regexp.Regexp, text string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return sortedSet(out)
}

func sortedSet(xs []string) []string {
	sort.Strings(xs)
	return slices.Compact(xs)
}

// expandBraces expands shell braces: "a/{b,c}.go" -> "a/b.go", "a/c.go".
func expandBraces(p string) []string {
	i := strings.IndexByte(p, '{')
	j := strings.IndexByte(p, '}')
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandBraces(p[:i]+alt+p[j+1:])...)
	}
	return out
}

// binaryFlags reads each binary's flags from the flag.*("name", ...)
// calls in cmd/*/main.go, without building anything.
func binaryFlags(t *testing.T) map[string][]string {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go (%v)", err)
	}
	def := regexp.MustCompile(`\bflag\.[A-Z]\w*\("([a-z][a-z0-9-]*)"`)
	out := map[string][]string{}
	for _, m := range mains {
		out[filepath.Base(filepath.Dir(m))] = matches(def, readDoc(t, m))
	}
	return out
}

// testFuncs lists every Test/Benchmark/Fuzz function in the repo's test
// files.
func testFuncs(t *testing.T) []string {
	t.Helper()
	def := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			names = append(names, matches(def, readDoc(t, path))...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsNameWhatExists: every internal, cmd and scripts path, make
// target, test name and tusd route the docs name is in the tree.
func TestDocsNameWhatExists(t *testing.T) {
	var targets []string
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		targets = append(targets, m[1])
	}
	funcs := testFuncs(t)
	var routes []*regexp.Regexp
	for _, m := range regexp.MustCompile(`HandleFunc\("[A-Z]+ (/[^"]*)"`).FindAllStringSubmatch(readDoc(t, "internal/server/server.go"), -1) {
		pat := regexp.MustCompile(`\\\{\w+\\\}`).ReplaceAllString(regexp.QuoteMeta(m[1]), `[^/]+`)
		if strings.HasSuffix(m[1], "/") {
			pat += ".*" // a subtree pattern
		}
		routes = append(routes, regexp.MustCompile("^"+pat+"$"))
	}

	// A path ends before a Go name it qualifies (internal/stats.Histogram).
	goName := regexp.MustCompile(`\.[A-Z]\w*$`)
	pathRe := regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|cmd|scripts)/[\w./{},*-]*[\w}*])`)
	makeRe := regexp.MustCompile("(?m)(?:`|^\\s*|run: )make ([a-z][\\w-]*)")
	testRe := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?)`)
	routeRe := regexp.MustCompile(`(?:^|[\s` + "`" + `(:0-9])(/(?:v1|metrics|healthz|debug/pprof)[\w/{}<>.-]*)`)
	for _, doc := range namingDocs {
		text := readDoc(t, doc)
		for _, p := range matches(pathRe, text) {
			if !slices.ContainsFunc(expandBraces(goName.ReplaceAllString(p, "")), func(alt string) bool {
				hits, _ := filepath.Glob(alt)
				return len(hits) > 0
			}) {
				t.Errorf("%s names %s, which is not in the tree", doc, p)
			}
		}
		for _, target := range matches(makeRe, text) {
			if !slices.Contains(targets, target) {
				t.Errorf("%s names make %s, which the Makefile does not define", doc, target)
			}
		}
		for _, name := range matches(testRe, text) {
			prefix, wild := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(funcs, func(f string) bool { return f == prefix || wild && strings.HasPrefix(f, prefix) }) {
				t.Errorf("%s names %s, which no test file defines", doc, name)
			}
		}
		for _, route := range matches(routeRe, text) {
			path := regexp.MustCompile(`<\w+>|\{\w+\}`).ReplaceAllString(strings.TrimRight(route, "."), "x")
			if !slices.ContainsFunc(routes, func(re *regexp.Regexp) bool { return re.MatchString(path) }) {
				t.Errorf("%s names the tusd route %s, which the server does not register", doc, route)
			}
		}
	}
}

// TestReadmeListsEveryFlag: README's flag reference has one entry per
// binary (a "- `name`:" bullet), and each names exactly the flags its
// binary defines.
func TestReadmeListsEveryFlag(t *testing.T) {
	readme := readDoc(t, "README.md")
	flagRe := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	for bin, defined := range binaryFlags(t) {
		_, entry, ok := strings.Cut(readme, "\n- `"+bin+"`:")
		if !ok {
			t.Errorf("README.md has no flag reference entry for %s", bin)
			continue
		}
		entry, _, _ = strings.Cut(entry, "\n- ")
		entry, _, _ = strings.Cut(entry, "\n\n")
		if documented := matches(flagRe, entry); strings.Join(documented, " ") != strings.Join(defined, " ") {
			t.Errorf("%s defines %v\nREADME.md's entry names %v", bin, defined, documented)
		}
	}
}

// TestDesignInventoryListsEveryPackage: DESIGN.md's system inventory
// names exactly the packages under internal/ and cmd/ that hold
// non-test Go.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	_, inv, ok := strings.Cut(readDoc(t, "DESIGN.md"), "\n## System inventory")
	if !ok {
		t.Fatal("DESIGN.md has no System inventory section")
	}
	inv, _, _ = strings.Cut(inv, "\n## ")
	var listed []string
	pkgRe := regexp.MustCompile("`((?:internal|cmd)/[a-z0-9]+)`")
	for _, row := range strings.Split(inv, "\n") {
		if cols := strings.Split(row, "|"); len(cols) > 3 {
			listed = append(listed, matches(pkgRe, cols[3])...)
		}
	}
	listed = sortedSet(listed)

	var pkgs []string
	for _, root := range []string{"internal", "cmd"} {
		files, err := filepath.Glob(root + "/*/*.go")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				pkgs = append(pkgs, filepath.ToSlash(filepath.Dir(f)))
			}
		}
	}
	pkgs = sortedSet(pkgs)
	if strings.Join(listed, " ") != strings.Join(pkgs, " ") {
		t.Errorf("DESIGN.md's inventory lists %v\nthe packages are %v", listed, pkgs)
	}
}
