package sim

import "ebm/internal/gpu"

// ParkedSchedulers counts the warp schedulers parked on a structural stall
// across the machine. It fails if any park disagrees with a full
// re-classification of its warp's instruction.
func (s *Simulator) ParkedSchedulers() (int, error) {
	n := 0
	for _, c := range s.cores {
		k, err := c.Parked()
		if err != nil {
			return n, err
		}
		n += k
	}
	return n, nil
}

// newReference builds a simulator with every skip path turned off: no
// core fast-forward, no partition sleep, a full FR-FCFS scan on every
// pick, and a network pass every cycle. It is the slow twin the fast
// engine must match bit for bit.
func newReference(opts Options) (*Simulator, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	s.reference = true
	for _, p := range s.partitions {
		p.SetReference()
	}
	return s, nil
}

// CoreStats returns a copy of every core's counters.
func (s *Simulator) CoreStats() []gpu.CoreStats {
	out := make([]gpu.CoreStats, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.Stats
	}
	return out
}
