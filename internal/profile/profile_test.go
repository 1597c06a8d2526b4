package profile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile, got %v (err %v)", path, fi, err)
		}
	}
}

func TestStartWithoutPathsWritesNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartNamesTheFlagOfAnUncreatableFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.pprof")
	if _, err := Start("", bad); err == nil || !strings.HasPrefix(err.Error(), "-memprofile: ") {
		t.Fatalf("Start with an uncreatable -memprofile path: err = %v", err)
	}
	if _, err := Start(bad, ""); err == nil || !strings.HasPrefix(err.Error(), "-cpuprofile: ") {
		t.Fatalf("Start with an uncreatable -cpuprofile path: err = %v", err)
	}
}
