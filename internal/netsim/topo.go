package netsim

import (
	"fmt"
	"math"
)

// Topology is the node/link graph underneath a network scenario,
// factored out of Config so every engine that carries traffic over
// routes shares one validation and path-delay vocabulary: the
// packet-level simulator here routes its Flows over it, and the
// networked mean-field engine (internal/netmf) routes its large-N
// source classes over the same graph.
type Topology struct {
	Nodes []Node
	Links []Link
}

// linkKey indexes the delay table by directed edge.
type linkKey struct{ from, to int }

// linkTable builds the directed-edge -> delay lookup, rejecting
// duplicate edges.
func (tp *Topology) linkTable() (map[linkKey]float64, error) {
	tab := make(map[linkKey]float64, len(tp.Links))
	for i, l := range tp.Links {
		if l.From < 0 || l.From >= len(tp.Nodes) || l.To < 0 || l.To >= len(tp.Nodes) {
			return nil, fmt.Errorf("link %d endpoints (%d -> %d) out of range", i, l.From, l.To)
		}
		if l.From == l.To {
			return nil, fmt.Errorf("link %d is a self-loop at node %d", i, l.From)
		}
		if !(l.Delay >= 0) || math.IsInf(l.Delay, 1) {
			return nil, fmt.Errorf("link %d has invalid delay %v", i, l.Delay)
		}
		k := linkKey{l.From, l.To}
		if _, dup := tab[k]; dup {
			return nil, fmt.Errorf("duplicate link %d -> %d", l.From, l.To)
		}
		tab[k] = l.Delay
	}
	return tab, nil
}

// Validate checks the graph: every node needs a positive service rate
// and a non-negative buffer, and the link list must index existing
// nodes without self-loops or duplicates.
func (tp *Topology) Validate() error {
	if len(tp.Nodes) == 0 {
		return fmt.Errorf("no nodes")
	}
	for i, n := range tp.Nodes {
		if !(n.Mu > 0) || math.IsInf(n.Mu, 1) {
			return fmt.Errorf("node %d service rate must be positive, got %v", i, n.Mu)
		}
		if n.Buffer < 0 {
			return fmt.Errorf("node %d has negative buffer %d", i, n.Buffer)
		}
	}
	_, err := tp.linkTable()
	return err
}

// ValidateRoute checks that route is non-empty, stays inside the node
// range, that every consecutive hop pair is connected by a link, and
// that the link delays along it sum to a finite delay.
// Callers validating many routes should build the link table once and
// use routeDelayIn (inside the package) — this convenience form
// rebuilds it per call.
func (tp *Topology) ValidateRoute(route []int) error {
	tab, err := tp.linkTable()
	if err != nil {
		return err
	}
	_, err = tp.routeDelayIn(tab, route)
	return err
}

// routeDelayIn is ValidateRoute against a pre-built link table; it
// also returns the route's path delay.
func (tp *Topology) routeDelayIn(tab map[linkKey]float64, route []int) (float64, error) {
	if len(route) == 0 {
		return 0, fmt.Errorf("empty route")
	}
	for _, h := range route {
		if h < 0 || h >= len(tp.Nodes) {
			return 0, fmt.Errorf("route node %d out of range", h)
		}
	}
	return pathDelayIn(tab, route)
}

// PathDelay returns the summed one-way propagation delay of the links
// along route (0 for a single-node route); a sum that overflows to
// +Inf is an error.
func (tp *Topology) PathDelay(route []int) (float64, error) {
	tab, err := tp.linkTable()
	if err != nil {
		return 0, err
	}
	return pathDelayIn(tab, route)
}

// pathDelayIn is PathDelay against a pre-built link table. Every link
// delay is finite, but their sum can still overflow; such a route is
// an error.
func pathDelayIn(tab map[linkKey]float64, route []int) (float64, error) {
	var d float64
	for k := 0; k+1 < len(route); k++ {
		ld, ok := tab[linkKey{route[k], route[k+1]}]
		if !ok {
			return 0, fmt.Errorf("route hop %d -> %d has no link", route[k], route[k+1])
		}
		d += ld
	}
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("route delay overflows to %v", d)
	}
	return d, nil
}

// NodeName returns the display name of node h.
func (tp *Topology) NodeName(h int) string {
	if h >= 0 && h < len(tp.Nodes) && tp.Nodes[h].Name != "" {
		return tp.Nodes[h].Name
	}
	return fmt.Sprintf("N%d", h)
}
