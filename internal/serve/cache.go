package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"essent/internal/codegen"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// cacheMeta sits next to each cached artifact binary and makes the
// cache self-validating: a hit is only served when the recorded SHA-256
// matches the bytes on disk, so a torn write or bit rot evicts and
// rebuilds instead of spawning a corrupt binary.
type cacheMeta struct {
	Design      string `json:"design"`
	Fingerprint string `json:"fingerprint"`
	OptsTag     string `json:"opts"`
	SHA256      string `json:"sha256"`
	GoVersion   string `json:"go_version"`
}

const (
	binName  = "artifact.bin"
	metaName = "meta.json"
	srcDir   = "src"
)

// cacheKey names the cache entry for a design + generation options
// pair. The design fingerprint covers the netlist's state layout; the
// options tag covers every generation knob that changes the emitted
// code; the generator format version covers changes to the generator
// itself, so artifacts from an older generator are never served.
func cacheKey(d *netlist.Design, gen codegen.Options) string {
	return fmt.Sprintf("%016x-%s-g%d", sim.DesignFingerprint(d), optsTag(gen),
		codegen.FormatVersion)
}

func optsTag(gen codegen.Options) string {
	mode := "fc"
	if gen.Mode == codegen.ModeCCSS {
		mode = "ccss"
	}
	cp := gen.Cp
	if cp == 0 {
		cp = 8
	}
	tag := fmt.Sprintf("%s-cp%d", mode, cp)
	if gen.Elide {
		tag += "-elide"
	}
	if gen.NoElide {
		tag += "-noelide"
	}
	if gen.NoMuxShadow {
		tag += "-noshadow"
	}
	if gen.NoPack {
		tag += "-nopack"
	}
	return tag
}

// DefaultCacheDir is where artifacts land when Config.CacheDir is
// empty: the user cache dir when resolvable, the system temp dir
// otherwise.
func DefaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "essent-artifacts")
	}
	return filepath.Join(os.TempDir(), "essent-artifacts")
}

// cacheDir resolves the entry directory for a key.
func (c *Config) cacheDir(key string) string {
	base := c.CacheDir
	if base == "" {
		base = DefaultCacheDir()
	}
	return filepath.Join(base, key)
}

func fileSHA256(path string) (string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// lookup returns the path of a validated cached binary, or "" on miss.
// A present-but-corrupt entry (checksum mismatch, unreadable metadata)
// is evicted so the caller rebuilds into a clean slot.
func (c *Config) lookup(key string) string {
	dir := c.cacheDir(key)
	bin := filepath.Join(dir, binName)
	metaBuf, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		if _, statErr := os.Stat(bin); statErr == nil {
			os.RemoveAll(dir) // binary without metadata: unusable
		}
		return ""
	}
	var meta cacheMeta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		os.RemoveAll(dir)
		return ""
	}
	sum, err := fileSHA256(bin)
	if err != nil || sum != meta.SHA256 {
		os.RemoveAll(dir)
		return ""
	}
	return bin
}

// seal records a freshly built binary's checksum in dir (the build's
// private temp directory — buildOnce renames the sealed entry into the
// keyed slot afterwards, so lookup never observes a partial build).
func (c *Config) seal(dir string, d *netlist.Design, gen codegen.Options) error {
	sum, err := fileSHA256(filepath.Join(dir, binName))
	if err != nil {
		return err
	}
	meta := cacheMeta{
		Design:      d.Name,
		Fingerprint: fmt.Sprintf("%016x", sim.DesignFingerprint(d)),
		OptsTag:     optsTag(gen),
		SHA256:      sum,
		GoVersion:   runtime.Version(),
	}
	buf, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, metaName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, metaName))
}

// Probe reports whether a validated artifact for the design + options
// pair is already cached (the "auto" backend's compiled-vs-interpreter
// decision, without triggering a build).
func Probe(d *netlist.Design, gen codegen.Options, cfg Config) bool {
	return cfg.lookup(cacheKey(d, gen)) != ""
}

// Evict removes the cache entry for a design + options pair (test and
// tooling hook).
func Evict(d *netlist.Design, gen codegen.Options, cfg Config) {
	os.RemoveAll(cfg.cacheDir(cacheKey(d, gen)))
}
