package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesOrKeeps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.nt")
	write := func(content string, fail error) error {
		return Write(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("v1\n", nil); err != nil {
		t.Fatal(err)
	}
	if err := write("v2\n", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := write("torn", boom); !errors.Is(err, boom) {
		t.Fatalf("Write = %v; want the write's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2\n" {
		t.Fatalf("after a failed write the file holds %q (%v); want the previous content", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left its temporary file: %v", err)
	}
}

// TestWritePanicRemovesTemp lets write panic after it wrote: the panic
// reaches the caller, path keeps its content, and the temporary file is
// closed and gone.
func TestWritePanicRemovesTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.nt")
	if err := Write(path, func(w io.Writer) error { _, err := io.WriteString(w, "v1\n"); return err }); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v; want write's panic", r)
			}
		}()
		Write(path, func(w io.Writer) error {
			io.WriteString(w, "torn")
			panic("boom")
		})
	}()
	if got, err := os.ReadFile(path); err != nil || string(got) != "v1\n" {
		t.Fatalf("after a panicking write the file holds %q (%v); want the previous content", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("panicking write left its temporary file: %v", err)
	}
}
