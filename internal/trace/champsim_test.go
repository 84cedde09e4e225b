package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"testing"
)

// tinyChampSimGolden pins the decoded form of testdata/tiny.champsim, a
// committed 14-record fixture covering every inferred branch class, both
// memory classes, size inference from the ip delta, and dependence
// reconstruction through the last-writer table. The fixture's final
// record (pc 0x403004) is dropped in non-loop mode: with no successor its
// target and size cannot be inferred.
var tinyChampSimGolden = []Instr{
	{PC: 0x401000, Size: 4, Class: ClassOther},
	{PC: 0x401004, Dep1: 1, Size: 4, Class: ClassOther},
	{PC: 0x401008, MemAddr: 0x600000, Dep1: 1, Size: 4, Class: ClassLoad},
	{PC: 0x40100c, MemAddr: 0x600040, Dep1: 1, Dep2: 3, Size: 4, Class: ClassStore},
	{PC: 0x401010, Target: 0x401020, Size: 4, Class: ClassCondBranch, Taken: true},
	{PC: 0x401020, Size: 4, Class: ClassOther},
	{PC: 0x401024, Size: 2, Class: ClassCondBranch},
	{PC: 0x401026, Target: 0x402000, Size: 4, Class: ClassCall, Taken: true},
	{PC: 0x402000, Dep1: 3, Size: 4, Class: ClassOther},
	{PC: 0x402004, Target: 0x40102b, Dep1: 2, Size: 4, Class: ClassReturn, Taken: true},
	{PC: 0x40102b, Target: 0x401080, Size: 4, Class: ClassIndirectJump, Taken: true},
	{PC: 0x401080, Target: 0x403000, Dep1: 2, Dep2: 11, Size: 4, Class: ClassIndirectCall, Taken: true},
	{PC: 0x403000, Size: 4, Class: ClassOther},
}

func collectChampSim(t *testing.T, c *ChampSim, max int) []Instr {
	t.Helper()
	var out []Instr
	for len(out) < max {
		in, ok := c.Next()
		if !ok {
			break
		}
		if err := Validate(in); err != nil {
			t.Fatalf("instruction %d invalid: %v", len(out), err)
		}
		out = append(out, in)
	}
	return out
}

// TestChampSimGolden decodes the committed fixture and compares against
// the pinned sequence instruction by instruction.
func TestChampSimGolden(t *testing.T) {
	c, err := OpenChampSim("testdata/tiny.champsim", false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := collectChampSim(t, c, 1<<20)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tinyChampSimGolden) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(tinyChampSimGolden))
	}
	for i, want := range tinyChampSimGolden {
		if got[i] != want {
			t.Errorf("instruction %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestChampSimReader decodes the same bytes through the io.Reader entry
// point: file-backed and reader-backed decodes must agree byte for byte.
func TestChampSimReader(t *testing.T) {
	raw, err := os.ReadFile("testdata/tiny.champsim")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChampSim(bytes.NewReader(raw))
	got := collectChampSim(t, c, 1<<20)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tinyChampSimGolden) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(tinyChampSimGolden))
	}
	for i, want := range tinyChampSimGolden {
		if got[i] != want {
			t.Errorf("instruction %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestChampSimLoop replays the fixture forever: the seam emits the
// otherwise-dropped final record (finalised against the rewound stream's
// first ip), every wrapped instruction still validates, and the second
// pass repeats the first's PCs.
func TestChampSimLoop(t *testing.T) {
	c, err := OpenChampSim("testdata/tiny.champsim", true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := collectChampSim(t, c, 3*14)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*14 {
		t.Fatalf("loop mode produced %d instructions, want %d", len(got), 3*14)
	}
	for i, want := range tinyChampSimGolden {
		if got[i] != want {
			t.Errorf("pre-seam instruction %d:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	seam := got[len(tinyChampSimGolden)]
	if seam.PC != 0x403004 {
		t.Errorf("seam instruction PC = %#x, want 0x403004 (the record dropped in non-loop mode)", seam.PC)
	}
	for i := 0; i < 14; i++ {
		if got[14+i].PC != got[2*14+i].PC {
			t.Errorf("pass 2/3 diverge at offset %d: %#x vs %#x", i, got[14+i].PC, got[2*14+i].PC)
		}
	}
}

// TestChampSimGzip round-trips the fixture through gzip and decodes the
// compressed copy to the same golden sequence.
func TestChampSimGzip(t *testing.T) {
	raw, err := os.ReadFile("testdata/tiny.champsim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gzPath := dir + "/tiny.champsim.gz"
	f, err := os.Create(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := OpenChampSim(gzPath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := collectChampSim(t, c, 1<<20)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tinyChampSimGolden) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(tinyChampSimGolden))
	}
}

// gzipCopy writes raw gzip-compressed to a new file and returns its path.
func gzipCopy(t *testing.T, raw []byte) string {
	t.Helper()
	path := t.TempDir() + "/tiny.champsim.gz"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestChampSimLoopRewind runs the looping fixture, plain and gzipped,
// over 1,000 wraps. Its stream must equal the non-looping decode of the
// fixture repeated end to end: the lookahead, the last-writer table and
// the stream index all carry across every seam, exactly as they would
// through one long file. A wrap allocates nothing: the file is rewound
// and its readers, gzip's included, reset in place.
func TestChampSimLoopRewind(t *testing.T) {
	raw, err := os.ReadFile("testdata/tiny.champsim")
	if err != nil {
		t.Fatal(err)
	}
	const wraps = 1_000
	want := collectChampSim(t, NewChampSim(bytes.NewReader(bytes.Repeat(raw, wraps+1))), 1<<30)
	if n := (wraps+1)*len(raw)/champSimRecordBytes - 1; len(want) != n {
		t.Fatalf("reference decoded %d instructions, want %d", len(want), n)
	}
	for name, path := range map[string]string{
		"plain": "testdata/tiny.champsim",
		"gzip":  gzipCopy(t, raw),
	} {
		t.Run(name, func(t *testing.T) {
			c, err := OpenChampSim(path, true)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := collectChampSim(t, c, len(want))
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("loop produced %d instructions, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("instruction %d (pass %d):\n got %+v\nwant %+v", i, i*champSimRecordBytes/len(raw), got[i], want[i])
				}
			}
			pass := len(raw) / champSimRecordBytes
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < pass; i++ { // one pass crosses one seam
					if _, ok := c.Next(); !ok {
						t.Fatal(c.Err())
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("a pass over the looping trace allocated %v times", allocs)
			}
		})
	}
}

// TestChampSimRejectsXZ pins the no-xz-codec contract: the error must
// tell the user to decompress externally rather than failing mid-decode.
func TestChampSimRejectsXZ(t *testing.T) {
	for _, path := range []string{"trace.champsim.xz", "trace.champsim.bz2"} {
		if _, err := OpenChampSim(path, false); err == nil {
			t.Errorf("OpenChampSim(%q) succeeded, want a decompress-externally error", path)
		}
	}
}

// TestChampSimTruncated pins the failure path: a stream whose length is
// not a multiple of the record size surfaces a decode error through Err.
func TestChampSimTruncated(t *testing.T) {
	raw, err := os.ReadFile("testdata/tiny.champsim")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChampSim(bytes.NewReader(raw[:len(raw)-7]))
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if c.Err() == nil {
		t.Fatal("truncated stream decoded without error")
	}
}
