package workloadspec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// yamlAllocSlack covers what decoding allocates regardless of input
// size: the JSON encoder's and decoder's buffers and reflection state.
const yamlAllocSlack = 64 << 10

// FuzzParseYAML feeds the mix-file decoder arbitrary bytes as YAML. It
// must never panic; allocation must stay within a small multiple of the
// input; and an accepted mix must re-marshal as JSON and re-parse to an
// equal MixConfig.
func FuzzParseYAML(f *testing.F) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.yaml"))
	if err != nil || len(specs) == 0 {
		f.Fatalf("no YAML seed specs (err %v)", err)
	}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("seed: 7\nclients:\n  - preset: server_001\n    arrival: {}\n"))
	f.Add([]byte("clients:\n- id: \"a # b\"\n  weight: 1e309\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg, err := decodeMix(data, true)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+yamlAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		js, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted mix does not marshal: %v", err)
		}
		again, err := decodeMix(js, false)
		if err != nil {
			t.Fatalf("re-marshalled mix %s rejected: %v", js, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("mix changed in a JSON round trip:\n got:  %+v\n want: %+v", again, cfg)
		}
	})
}
