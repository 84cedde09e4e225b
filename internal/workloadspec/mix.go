package workloadspec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

// Arrival process names. Deterministic quanta model round-robin-like
// scheduling; poisson models memoryless request interleaving; gamma with
// CV > 1 models bursty traffic (long same-client runs separated by rapid
// switching), the regime where front-end working sets collide hardest.
const (
	ArrivalDeterministic = "deterministic"
	ArrivalPoisson       = "poisson"
	ArrivalGamma         = "gamma"
)

// defaultBurst is the mean scheduling-quantum length in instructions —
// roughly the request-scale granularity at which a server core switches
// between tenants, long enough for a client to rebuild some cache state
// and short enough that clients genuinely interleave within a run.
const defaultBurst = 50_000

// ArrivalSpec declares a client's scheduling-quantum distribution.
type ArrivalSpec struct {
	// Process is one of "deterministic", "poisson", or "gamma"; empty
	// means deterministic.
	Process string `json:"process,omitempty"`
	// Burst is the mean quantum length in instructions (default 50000).
	Burst float64 `json:"burst,omitempty"`
	// CV is the gamma process's coefficient of variation (default 2;
	// CV 1 degenerates to poisson, larger is burstier).
	CV float64 `json:"cv,omitempty"`
}

// ClientSpec declares one weighted client of a mix. Exactly one of
// Preset and Config selects the client's program shape.
type ClientSpec struct {
	// ID names the client in diagnostics; defaults to the preset name or
	// "client<i>".
	ID string `json:"id,omitempty"`
	// Preset names a synthetic preset ("server_003").
	Preset string `json:"preset,omitempty"`
	// Config gives the client's CFG shape distribution explicitly.
	Config *workload.Config `json:"config,omitempty"`
	// Weight is the client's share of scheduling quanta (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Seed overrides the client's program seed before per-client
	// decorrelation is applied.
	Seed int64 `json:"seed,omitempty"`
	// Arrival is the client's quantum distribution.
	Arrival ArrivalSpec `json:"arrival,omitempty"`
}

// MixConfig declares a multi-client mix: weighted clients whose streams
// interleave under per-client arrival processes, driven by one seeded
// scheduler. The whole mix is a pure function of (Clients, Seed).
type MixConfig struct {
	Name string `json:"name,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Path loads Clients from a YAML or JSON mix file instead of giving
	// them inline; the resolved spec inlines the file's contents so the
	// content hash covers the clients, not the path.
	Path    string       `json:"path,omitempty"`
	Clients []ClientSpec `json:"clients,omitempty"`
}

// LoadMixFile reads a mix declaration from a YAML (.yaml/.yml) or JSON
// file. The file holds a MixConfig without the path field.
func LoadMixFile(path string) (MixConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return MixConfig{}, fmt.Errorf("workloadspec: %w", err)
	}
	cfg, err := decodeMix(data, strings.HasSuffix(path, ".yaml") || strings.HasSuffix(path, ".yml"))
	if err != nil {
		return MixConfig{}, fmt.Errorf("workloadspec: mix file %s: %w", path, err)
	}
	return cfg, nil
}

// decodeMix decodes a mix declaration, a MixConfig without the path
// field, from YAML or JSON.
func decodeMix(data []byte, isYAML bool) (MixConfig, error) {
	if isYAML {
		v, err := parseYAML(data)
		if err != nil {
			return MixConfig{}, err
		}
		// Re-encode the generic YAML value as JSON and decode strictly, so
		// YAML and JSON mix files share one schema and one error surface.
		data, err = json.Marshal(v)
		if err != nil {
			return MixConfig{}, err
		}
	}
	var cfg MixConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return MixConfig{}, err
	}
	if cfg.Path != "" {
		return MixConfig{}, fmt.Errorf("nested path not allowed")
	}
	return cfg, nil
}

// resolvedClient is a validated ClientSpec: the materialised generator
// config plus normalised scheduling parameters.
type resolvedClient struct {
	id      string
	cfg     workload.Config
	weight  float64
	process string
	burst   float64
	cv      float64
}

// resolveMix validates m (loading Path if set) and returns the canonical
// config alongside the per-client resolution.
func resolveMix(m MixConfig) (MixConfig, []resolvedClient, error) {
	if m.Path != "" {
		if len(m.Clients) > 0 {
			return MixConfig{}, nil, fmt.Errorf("workloadspec: mix: set path or clients, not both")
		}
		loaded, err := LoadMixFile(m.Path)
		if err != nil {
			return MixConfig{}, nil, err
		}
		if m.Name != "" {
			loaded.Name = m.Name
		}
		if m.Seed != 0 {
			loaded.Seed = m.Seed
		}
		m = loaded
	}
	if len(m.Clients) == 0 {
		return MixConfig{}, nil, fmt.Errorf("workloadspec: mix needs at least one client")
	}
	clients := make([]resolvedClient, len(m.Clients))
	for i, c := range m.Clients {
		rc, err := resolveClient(m, i, c)
		if err != nil {
			return MixConfig{}, nil, err
		}
		clients[i] = rc
	}
	if m.Name == "" {
		m.Name = mixName(m)
	}
	return m, clients, nil
}

func resolveClient(m MixConfig, i int, c ClientSpec) (resolvedClient, error) {
	var cfg workload.Config
	switch {
	case c.Preset != "" && c.Config != nil:
		return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: set preset or config, not both", i)
	case c.Preset != "":
		var err error
		cfg, err = workload.ByName(c.Preset)
		if err != nil {
			return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: %w", i, err)
		}
	case c.Config != nil:
		cfg = *c.Config
	default:
		return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: needs a preset or a config", i)
	}
	id := c.ID
	if id == "" {
		if cfg.Name != "" {
			id = cfg.Name
		} else {
			id = fmt.Sprintf("client%d", i)
		}
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	// Decorrelate the clients: two clients sharing a preset must not be
	// the same program replayed twice, and each client gets a disjoint
	// code/stack address range so their footprints contend in the cache
	// like separate processes rather than aliasing onto each other.
	cfg.Seed ^= m.Seed*int64(-0x61c8864680b583eb) + int64(i+1)*0x85ebca6b
	if cfg.Name == "" {
		cfg.Name = id
	}
	if cfg.CodeBase == 0 {
		cfg.CodeBase = 0x400000 + uint64(i)<<32
	}
	if cfg.StackBase == 0 {
		cfg.StackBase = 0x7fff_0000_0000 + uint64(i)<<33
	}
	weight := c.Weight
	if weight == 0 {
		weight = 1
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: bad weight %v", i, c.Weight)
	}
	process := c.Arrival.Process
	if process == "" {
		process = ArrivalDeterministic
	}
	switch process {
	case ArrivalDeterministic, ArrivalPoisson, ArrivalGamma:
	default:
		return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: unknown arrival process %q (have: %s, %s, %s)",
			i, process, ArrivalDeterministic, ArrivalPoisson, ArrivalGamma)
	}
	burst := c.Arrival.Burst
	if burst == 0 {
		burst = defaultBurst
	}
	if burst < 1 || math.IsNaN(burst) || math.IsInf(burst, 0) {
		return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: bad burst %v", i, c.Arrival.Burst)
	}
	cv := c.Arrival.CV
	if cv == 0 {
		cv = 2
	}
	if cv < 0 || math.IsNaN(cv) || math.IsInf(cv, 0) {
		return resolvedClient{}, fmt.Errorf("workloadspec: mix client %d: bad cv %v", i, c.Arrival.CV)
	}
	return resolvedClient{id: id, cfg: cfg, weight: weight, process: process, burst: burst, cv: cv}, nil
}

// mixName derives a stable default name from the mix's content, so two
// different anonymous mixes in one sweep never collide in displays or
// memo keys.
func mixName(m MixConfig) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(m.Seed)
	enc.Encode(m.Clients)
	return "mix-" + hex.EncodeToString(h.Sum(nil)[:4])
}

func buildMix(m MixConfig) (Workload, error) {
	canon, clients, err := resolveMix(m)
	if err != nil {
		return Workload{}, err
	}
	spec, err := specOf("mix", canon)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name: canon.Name,
		Spec: spec,
		open: func() (trace.Source, error) { return newMixSource(canon.Seed, clients) },
	}, nil
}

// mixClient is one client's live state inside a mixSource.
type mixClient struct {
	src     trace.Source
	process string
	burst   float64
	cv      float64
	cum     float64 // cumulative weight, for the scheduler's pick
}

// mixSource interleaves the clients' streams: a seeded scheduler picks
// the next client with probability proportional to its weight, draws a
// quantum length from the client's arrival distribution, and emits that
// many instructions from the client's walker before switching. Each
// client's stream stays internally continuous (its own walker, RAS
// balance, and working-set drift), so a switch looks to the front end
// like a context switch: a cold redirect into another program's code.
type mixSource struct {
	clients []mixClient
	total   float64
	rng     *rand.Rand
	cur     int
	left    uint64
}

func newMixSource(seed int64, clients []resolvedClient) (*mixSource, error) {
	m := &mixSource{
		clients: make([]mixClient, len(clients)),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed_4d19)),
	}
	for i, c := range clients {
		w, err := workload.New(c.cfg)
		if err != nil {
			return nil, fmt.Errorf("workloadspec: mix client %s: %w", c.id, err)
		}
		m.total += c.weight
		m.clients[i] = mixClient{
			src: w, process: c.process, burst: c.burst, cv: c.cv, cum: m.total,
		}
	}
	return m, nil
}

// Next emits the next instruction of the interleaved stream.
//
//ubs:hotpath
func (m *mixSource) Next() (trace.Instr, bool) {
	if m.left == 0 {
		m.reschedule()
	}
	m.left--
	return m.clients[m.cur].src.Next()
}

// reschedule picks the next client and draws its quantum length. It runs
// once per quantum (tens of thousands of instructions), off the per-
// instruction path.
func (m *mixSource) reschedule() {
	x := m.rng.Float64() * m.total
	c := 0
	for c < len(m.clients)-1 && x >= m.clients[c].cum {
		c++
	}
	m.cur = c
	cl := &m.clients[c]
	q := cl.burst
	switch cl.process {
	case ArrivalPoisson:
		q = m.rng.ExpFloat64() * cl.burst
	case ArrivalGamma:
		// Shape/scale chosen so the quantum mean is burst and its
		// coefficient of variation is cv.
		shape := 1 / (cl.cv * cl.cv)
		q = gammaSample(m.rng, shape) * cl.burst / shape
	}
	if q < 1 {
		q = 1
	}
	if q > 1<<40 {
		q = 1 << 40
	}
	m.left = uint64(q + 0.5)
}

// gammaSample draws from Gamma(shape, 1) using Marsaglia & Tsang's
// squeeze method (boosted below shape 1). The draw consumes a variable
// number of rng variates but is fully deterministic given the rng state.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
