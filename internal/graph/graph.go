// Package graph holds the Wikipedia graph model of the paper's §3: a
// directed graph whose nodes are typed entities and whose labeled edges are
// the inter-links WiClean maintains. Graph snapshots are what revision
// actions mutate; a Timeline reconstructs the graph at any instant. The
// miner does not use this package: it reads actions from a mining.Store.
// examples/revisionlog is its one user.
package graph

import (
	"fmt"
	"sort"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// Graph is a mutable snapshot of entity inter-links at a point in time.
// It is not safe for concurrent mutation.
type Graph struct {
	reg   *taxonomy.Registry
	out   map[taxonomy.EntityID][]action.Edge // src -> outgoing edges
	edges map[action.Edge]bool
}

// New returns an empty graph over the registry's entities.
func New(reg *taxonomy.Registry) *Graph {
	return &Graph{
		reg:   reg,
		out:   map[taxonomy.EntityID][]action.Edge{},
		edges: map[action.Edge]bool{},
	}
}

// Registry returns the entity registry backing the graph.
func (g *Graph) Registry() *taxonomy.Registry { return g.reg }

// HasEdge reports whether the edge is present.
func (g *Graph) HasEdge(e action.Edge) bool { return g.edges[e] }

// AddEdge inserts e; inserting an existing edge is a no-op (edges form a
// set, mirroring that a Wikipedia infobox links an article at most once per
// relation instance).
func (g *Graph) AddEdge(e action.Edge) {
	if g.edges[e] {
		return
	}
	g.edges[e] = true
	g.out[e.Src] = append(g.out[e.Src], e)
}

// RemoveEdge deletes e; removing a missing edge is a no-op.
func (g *Graph) RemoveEdge(e action.Edge) {
	if !g.edges[e] {
		return
	}
	delete(g.edges, e)
	outs := g.out[e.Src]
	for i, o := range outs {
		if o == e {
			g.out[e.Src] = append(outs[:i], outs[i+1:]...)
			break
		}
	}
	if len(g.out[e.Src]) == 0 {
		delete(g.out, e.Src)
	}
}

// Apply mutates the graph with one action.
func (g *Graph) Apply(a action.Action) {
	switch a.Op {
	case action.Add:
		g.AddEdge(a.Edge)
	case action.Remove:
		g.RemoveEdge(a.Edge)
	}
}

// ApplyAll applies actions in timestamp order.
func (g *Graph) ApplyAll(as []action.Action) {
	sorted := make([]action.Action, len(as))
	copy(sorted, as)
	action.SortByTime(sorted)
	for _, a := range sorted {
		g.Apply(a)
	}
}

// Out returns the outgoing edges of src, sorted for determinism.
func (g *Graph) Out(src taxonomy.EntityID) []action.Edge {
	es := make([]action.Edge, len(g.out[src]))
	copy(es, g.out[src])
	sort.Slice(es, func(i, j int) bool {
		if es[i].Label != es[j].Label {
			return es[i].Label < es[j].Label
		}
		return es[i].Dst < es[j].Dst
	})
	return es
}

// OutWithLabel returns the targets src links to via label, sorted.
func (g *Graph) OutWithLabel(src taxonomy.EntityID, l action.Label) []taxonomy.EntityID {
	var out []taxonomy.EntityID
	for _, e := range g.out[src] {
		if e.Label == l {
			out = append(out, e.Dst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// TouchedNodes returns every entity that is an endpoint of some edge,
// sorted.
func (g *Graph) TouchedNodes() []taxonomy.EntityID {
	seen := map[taxonomy.EntityID]bool{}
	for e := range g.edges {
		seen[e.Src] = true
		seen[e.Dst] = true
	}
	out := make([]taxonomy.EntityID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all edges sorted, for deterministic iteration.
func (g *Graph) Edges() []action.Edge {
	out := make([]action.Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Dst < b.Dst
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.reg)
	for e := range g.edges {
		c.AddEdge(e)
	}
	return c
}

// Equal reports whether two graphs have the same edge set.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.edges) != len(o.edges) {
		return false
	}
	for e := range g.edges {
		if !o.edges[e] {
			return false
		}
	}
	return true
}

// Reachable returns every entity reachable from src following outgoing
// edges within at most hops steps (hops < 0 means unbounded). src itself is
// included. This is the neighborhood construction of the paper's
// small-data experiment (§6.2, the "2-reachable" subgraph).
func (g *Graph) Reachable(src taxonomy.EntityID, hops int) []taxonomy.EntityID {
	type qe struct {
		id taxonomy.EntityID
		d  int
	}
	seen := map[taxonomy.EntityID]bool{src: true}
	queue := []qe{{src, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if hops >= 0 && cur.d >= hops {
			continue
		}
		for _, e := range g.out[cur.id] {
			if !seen[e.Dst] {
				seen[e.Dst] = true
				queue = append(queue, qe{e.Dst, cur.d + 1})
			}
		}
	}
	out := make([]taxonomy.EntityID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d nodes touched, %d edges}", len(g.TouchedNodes()), len(g.edges))
}
