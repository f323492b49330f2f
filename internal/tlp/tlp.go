// Package tlp defines the interface between the simulator's sampling
// hardware and the TLP management policies, and implements the baseline
// policies the paper compares against: static per-application TLP
// (maxTLP, bestTLP and arbitrary combinations), DynCTA-style dynamic
// modulation, and the Mod+Bypass scheme (TLP modulation plus L1 bypassing
// for cache-insensitive applications).
//
// The paper's own mechanism (pattern-based searching over effective
// bandwidth) lives in internal/core and implements Manager too.
package tlp

import (
	"fmt"

	"ebm/internal/config"
)

// AppSample is one application's telemetry for one sampling window, as
// collected by the Fig. 8 hardware: L1 miss rate from a designated core,
// L2 miss rate and attained bandwidth from a designated memory partition
// (or machine-wide aggregates when designated sampling is disabled).
type AppSample struct {
	App    int
	TLP    int // TLP limit in effect during the window
	Bypass bool

	Insts  uint64
	Cycles uint64
	IPC    float64

	L1MR float64
	L2MR float64
	CMR  float64 // L1MR * L2MR
	BW   float64 // attained DRAM bandwidth, fraction of peak
	EB   float64 // BW / CMR

	IssueUtil    float64 // fraction of issue slots used
	MemStallFrac float64 // fraction of cycles idle with warps blocked on memory

	// VTARate is the fraction of L1 misses that hit the victim tag array
	// (lost intra-app locality); only populated when the simulator's
	// victim-tag detector is enabled (CCWS baseline).
	VTARate float64

	KernelRelaunched bool // a kernel boundary was crossed in this window
}

// Sample is the telemetry for one sampling window across all applications.
type Sample struct {
	Cycle   uint64 // end-of-window core cycle
	TotalBW float64
	Apps    []AppSample
}

// Decision is a manager's requested configuration. Slices are indexed by
// application.
type Decision struct {
	TLP      []int
	BypassL1 []bool
}

// NewDecision returns a Decision with every app at tlp and no bypassing.
func NewDecision(numApps, tlp int) Decision {
	d := Decision{TLP: make([]int, numApps), BypassL1: make([]bool, numApps)}
	for i := range d.TLP {
		d.TLP[i] = tlp
	}
	return d
}

// Clone deep-copies the decision.
func (d Decision) Clone() Decision {
	return Decision{
		TLP:      append([]int(nil), d.TLP...),
		BypassL1: append([]bool(nil), d.BypassL1...),
	}
}

// Equal reports whether two decisions request the same hardware state:
// TLP values are compared after clamping to the machine's level range
// (the warp schedulers cannot tell 25 from 24), and a nil BypassL1 equals
// an all-false one. The simulator uses it to skip no-op decision relays.
func (d Decision) Equal(o Decision) bool {
	if len(d.TLP) != len(o.TLP) {
		return false
	}
	for i := range d.TLP {
		if config.ClampToLevel(d.TLP[i]) != config.ClampToLevel(o.TLP[i]) {
			return false
		}
	}
	bypass := func(x Decision, i int) bool {
		return x.BypassL1 != nil && i < len(x.BypassL1) && x.BypassL1[i]
	}
	for i := range d.TLP {
		if bypass(d, i) != bypass(o, i) {
			return false
		}
	}
	return true
}

// String renders the decision for journals and logs, e.g.
// "tlp=[24 1]" or "tlp=[8 8] bypass=[tf]".
func (d Decision) String() string {
	anyBypass := false
	for _, b := range d.BypassL1 {
		anyBypass = anyBypass || b
	}
	if !anyBypass {
		return fmt.Sprintf("tlp=%v", d.TLP)
	}
	marks := make([]byte, 0, len(d.BypassL1))
	for _, b := range d.BypassL1 {
		if b {
			marks = append(marks, 't')
		} else {
			marks = append(marks, 'f')
		}
	}
	return fmt.Sprintf("tlp=%v bypass=[%s]", d.TLP, marks)
}

// Manager is a TLP management policy driven by the sampling hardware.
type Manager interface {
	// Name identifies the policy in reports.
	Name() string
	// Initial returns the configuration to start executing with.
	Initial(numApps int) Decision
	// OnSample is invoked at the end of every sampling window and returns
	// the configuration for the next window.
	OnSample(s Sample) Decision
}

// Phaser is implemented by managers that move through named phases (PBS:
// init/scale/sweep/tune/stable). When a journal is attached the engine
// polls the installed manager after every OnSample and journals each
// change; a manager without phases reports none.
type Phaser interface {
	Phase() string
}

// Static runs every application at a fixed TLP combination for the whole
// execution: it implements maxTLP, bestTLP, ++bestTLP, and the individual
// combinations enumerated by the exhaustive searches.
type Static struct {
	name   string
	tlps   []int
	bypass []bool
}

// NewStatic builds a static policy. bypass may be nil; when set it must
// match tlps element for element. The combination length is the policy's
// application count: it is validated here, once, instead of Initial
// silently padding a short list with maxTLP (or truncating a long one),
// which used to turn a malformed spec into a quietly different
// simulation.
func NewStatic(name string, tlps []int, bypass []bool) (*Static, error) {
	if len(tlps) == 0 {
		return nil, fmt.Errorf("tlp: static policy %q needs at least one TLP value", name)
	}
	if bypass != nil && len(bypass) != len(tlps) {
		return nil, fmt.Errorf("tlp: static policy %q has %d bypass values for %d TLP values",
			name, len(bypass), len(tlps))
	}
	return &Static{name: name, tlps: tlps, bypass: bypass}, nil
}

// NewMaxTLP returns the ++maxTLP policy for numApps applications.
func NewMaxTLP(numApps int) *Static {
	tlps := make([]int, numApps)
	for i := range tlps {
		tlps[i] = config.MaxTLP
	}
	return &Static{name: "++maxTLP", tlps: tlps}
}

// Name implements Manager.
func (s *Static) Name() string { return s.name }

// Initial implements Manager: the decision is exactly the constructed
// combination. A numApps that disagrees with the combination length is a
// construction-time error (NewStatic) and an engine-level one (sim.New
// rejects a wrong-length initial decision), so no padding happens here.
func (s *Static) Initial(numApps int) Decision {
	d := Decision{
		TLP:      append([]int(nil), s.tlps...),
		BypassL1: make([]bool, len(s.tlps)),
	}
	if s.bypass != nil {
		copy(d.BypassL1, s.bypass)
	}
	return d
}

// OnSample implements Manager: static policies never change.
func (s *Static) OnSample(sm Sample) Decision {
	return s.Initial(len(sm.Apps))
}

// String implements fmt.Stringer.
func (s *Static) String() string {
	return fmt.Sprintf("%s%v", s.name, s.tlps)
}
