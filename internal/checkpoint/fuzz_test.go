package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/fdip"
	"ubscache/internal/mem"
	"ubscache/internal/sim"
)

// decodeAllocSlack covers what Decode allocates regardless of input
// size: the MachineState's fixed-size pointees (the core's completion
// ring alone is 4KB) and the JSON decoder's bookkeeping.
const decodeAllocSlack = 64 << 10

// tinyParams shrinks every structure of the machine, so that a real
// checkpoint of it is a few kilobytes the fuzzer can mutate quickly.
func tinyParams() sim.Params {
	p := testParams()
	p.Core.ROBSize, p.Core.SchedSize, p.Core.LQSize, p.Core.SQSize, p.Core.DecodeQueue = 16, 8, 8, 8, 8
	p.Core.FTQ = fdip.Config{Regions: 4, MaxInstrs: 16, Prefetch: true, PrefetchWindow: 8}
	p.BPU = bpu.Config{Tables: 2, TableEntries: 16, HistoryBits: 8, Threshold: 30,
		BTBEntries: 16, BTBWays: 2, RASEntries: 4}
	p.L1D = mem.DataCacheConfig{Sets: 4, Ways: 2, Lat: 5, MSHRs: 2, BlockSize: 64}
	p.Hierarchy = mem.HierarchyConfig{L2Sets: 8, L2Ways: 2, L2Lat: 12, L2MSHRs: 4,
		L3Sets: 8, L3Ways: 2, L3Lat: 30, L3MSHRs: 4, BlockSize: 64, DRAM: mem.DefaultDRAMConfig()}
	return p
}

// FuzzDecode feeds Decode arbitrary bytes, both as given and with the
// trailing CRC recomputed (so mutations reach the meta and state
// decoders instead of stopping at the checksum). Decode must never
// panic; a crafted length prefix must not allocate more than a small
// multiple of the input; and whatever decodes must re-encode to the
// same bytes.
func FuzzDecode(f *testing.F) {
	good := midRunCheckpoint(f, tinyParams(), `{"kind":"conv","config":{"sets":4,"ways":2,"mshrs":2,"acic":true}}`)
	f.Add(good)
	f.Add(midRunCheckpoint(f, tinyParams(), `{"kind":"smallblock","config":{"custom":{"BlockSize":32,"Sets":2,"Ways":2,"Lat":4,"MSHRs":2,"BufferCap":2}}}`))
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte { b[len(b)/3] ^= 0x40; return b },
		func(b []byte) []byte { b[len(b)-100] = 0xff; return b },
		func(b []byte) []byte { binary.LittleEndian.PutUint32(b[6:], 1<<30); return b },
		func(b []byte) []byte { return append(b[:len(b)-4], 0, 0, 0, 0, 0) },
	} {
		f.Add(mutate(append([]byte(nil), good...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= 4 {
			sealed := append([]byte(nil), data...)
			payload := sealed[:len(sealed)-4]
			binary.LittleEndian.PutUint32(sealed[len(payload):], crc32.ChecksumIEEE(payload))
			checkDecode(t, sealed)
		}
	})
}

func checkDecode(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	meta, st, err := Decode(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(data)+decodeAllocSlack) {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
	}
	if err != nil {
		return
	}
	again, err := Encode(meta, st)
	if err != nil {
		t.Fatalf("re-encoding a decoded checkpoint: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("decoded checkpoint re-encodes to different bytes (%d vs %d)", len(again), len(data))
	}
}
