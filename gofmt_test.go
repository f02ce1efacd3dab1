package workbench

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt fails naming every .go file in the tree that gofmt would
// change. Directories whose names begin with "." (the benchmark's
// .bench_build/ among them) are skipped, as the go tool skips them.
func TestGofmt(t *testing.T) {
	var unformatted []string
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			unformatted = append(unformatted, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(unformatted) > 0 {
		t.Fatalf("gofmt would change %d file(s):\n%s", len(unformatted), strings.Join(unformatted, "\n"))
	}
}
