package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// champSimAllocSlack covers what decoding allocates regardless of input
// size: the decoder and its 64 KiB read buffer, and the error of a
// truncated record.
const champSimAllocSlack = 80 << 10

// FuzzChampSim drives the ChampSim decoder over arbitrary bytes to the
// end of the stream. It must never panic; allocation must stay within a
// small multiple of the input; it must emit one instruction per whole
// 64-byte record after the first (each waits for its successor's ip);
// and it must report an error exactly when a record is truncated.
func FuzzChampSim(f *testing.F) {
	tiny, err := os.ReadFile(filepath.Join("testdata", "tiny.champsim"))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(tiny), len(tiny) - 1, len(tiny) / 2, 2 * champSimRecordBytes,
		champSimRecordBytes + 1, champSimRecordBytes, champSimRecordBytes - 1, 0} {
		f.Add(tiny[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewChampSim(bytes.NewReader(data))
		n := 0
		for {
			in, ok := c.Next()
			if !ok {
				break
			}
			if in.Size == 0 || in.Size > 15 {
				t.Fatalf("instruction %d has size %d", n, in.Size)
			}
			n++
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data)+champSimAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if want := max(len(data)/champSimRecordBytes-1, 0); n != want {
			t.Fatalf("%d bytes decoded to %d instructions, want %d", len(data), n, want)
		}
		if truncated := len(data)%champSimRecordBytes != 0; (c.Err() != nil) != truncated {
			t.Fatalf("%d bytes: Err() = %v, truncated %v", len(data), c.Err(), truncated)
		}
	})
}
