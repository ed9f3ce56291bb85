package avgi

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMetricsDocumented keeps docs/OBSERVABILITY.md and the code in step:
// every "avgi_…" metric name literal in non-test Go source must appear in
// the doc, spelled out in full, and every avgi_ name the doc mentions must
// still exist in the source.
func TestMetricsDocumented(t *testing.T) {
	literal := regexp.MustCompile(`"(avgi_[a-z0-9_]+)"`)
	inSource := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range literal.FindAllSubmatch(data, -1) {
			inSource[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inSource) == 0 {
		t.Fatal("no metric names found in the source")
	}
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	inDoc := map[string]bool{}
	for _, m := range regexp.MustCompile(`avgi_[a-z0-9_]+`).FindAll(doc, -1) {
		inDoc[string(m)] = true
	}
	for _, name := range sortedKeys(inSource) {
		if !inDoc[name] {
			t.Errorf("metric %s is published but not documented in docs/OBSERVABILITY.md", name)
		}
	}
	for _, name := range sortedKeys(inDoc) {
		if !inSource[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which no source file publishes", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
