package tensor

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fmaMnemonic matches the x86 fused multiply-add family (VFMADD…,
// VFMSUB…, VFNMADD…, VFNMSUB…, including VFMADDSUB and VFMSUBADD).
var fmaMnemonic = regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)

// TestAssemblyHasNoFMA keeps fused multiply-adds out of every amd64
// assembly file in the module. A fused multiply-add rounds once where the
// Go loops round twice, so one in a kernel would change θ's bits on AVX2
// machines only (DESIGN.md §13). Comments are not scanned.
func TestAssemblyHasNoFMA(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found from the package directory: %v", err)
	}
	var files int
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_amd64.s") {
			return err
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if fmaMnemonic.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add %q", path, i+1, strings.TrimSpace(code))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no *_amd64.s file found; the guard would pass vacuously")
	}
}
