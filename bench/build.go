package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// probeLayers are the layers with a replay probe, in the order a mutation
// crosses them; each is its own main package under bench/layers.
var probeLayers = []string{"serve", "applyloop", "store", "engine", "grid", "core", "decompose", "cluster", "adaptive"}

// builder compiles the server and the probes from the checkout's sources
// into <root>/.bench_build, with the Go build cache kept there too: the
// benchmark reads and writes nothing outside its checkout, and every run
// after the first is a cache hit.
type builder struct {
	root string // checkout root (holds go.mod, cmd/, internal/, bench/)
	bin  string // <root>/.bench_build/bin
	env  []string
}

func newBuilder(root string) (*builder, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	b := &builder{root: root, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(filepath.Join(b.bin, "layers"), 0o755); err != nil {
		return nil, err
	}
	b.env = append(os.Environ(),
		"GOCACHE="+filepath.Join(build, "gocache"),
		"GOPATH="+filepath.Join(build, "gopath"),
		"GOFLAGS=",
		"GOTOOLCHAIN=local",
		"GOWORK=off",
	)
	return b, nil
}

// goBuild runs `go build -o out pkgs...` inside bench/, the benchmark's own
// module (which reaches the repository's packages through its replace).
func (b *builder) goBuild(out string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", out}, pkgs...)...)
	cmd.Dir = filepath.Join(b.root, "bench")
	cmd.Env = b.env
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %w\n%s", pkgs, err, msg)
	}
	return nil
}

// server builds cmd/rdbsc-server and returns the binary's path.
func (b *builder) server() (string, error) {
	out := filepath.Join(b.bin, "rdbsc-server")
	return out, b.goBuild(out, "rdbsc/cmd/rdbsc-server")
}

// probes builds every layer probe and returns the binaries by layer. All
// of them build in one go command; when that fails — a later change
// deleted or renamed a layer — each is built on its own, and the ones
// that no longer build are returned in absent with the compiler's words,
// so the layer's metrics are lost with a note instead of the benchmark.
func (b *builder) probes() (bins map[string]string, absent map[string]error) {
	dir := filepath.Join(b.bin, "layers") + string(filepath.Separator)
	bins, absent = map[string]string{}, map[string]error{}
	allErr := b.goBuild(dir, "./layers/...")
	for _, layer := range probeLayers {
		if allErr != nil {
			if err := b.goBuild(dir, "./layers/"+layer); err != nil {
				absent[layer] = err
				continue
			}
		}
		bins[layer] = filepath.Join(dir, layer)
	}
	return bins, absent
}
