package pds

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"montage/internal/core"
)

// Graph is the general Montage graph of Section 6.3, the paper's
// demonstration that Montage handles any abstraction made of items and
// relationships. Persistence follows the paper's pointer-chain rule:
// edge payloads *name* their endpoint vertices (by id), vertices do not
// reference their edges, so no persistent pointer chains exist and a
// change to one payload never cascades. Connectivity is kept in a
// transient adjacency index and rebuilt on recovery.
//
// The graph is undirected; an edge {u,v} is stored once under the
// canonical (min,max) order. Vertex operations lock the stripe set they
// touch in ascending order, making the locking deadlock-free.
type Graph struct {
	sys     *core.System
	tag     uint16
	stripes []graphStripe
	mask    uint64
}

type graphStripe struct {
	mu       sync.Mutex
	vertices map[uint64]*vertexNode
}

// vertexNode is the transient vertex object: the only pointer to the
// vertex payload plus the adjacency set, each neighbor entry holding the
// only pointer to the corresponding edge payload.
type vertexNode struct {
	id      uint64
	payload *core.PBlk
	edges   map[uint64]*edgeRef // neighbor id -> shared edge ref
}

// edgeRef indirects the edge payload pointer so that both endpoints'
// adjacency entries share one rewrite point (constraint 4).
type edgeRef struct {
	payload *core.PBlk
}

const (
	tagVertex byte = 'V'
	tagEdge   byte = 'E'
)

func encodeVertex(id uint64, attr []byte) []byte {
	buf := make([]byte, 9+len(attr))
	buf[0] = tagVertex
	binary.LittleEndian.PutUint64(buf[1:], id)
	copy(buf[9:], attr)
	return buf
}

func decodeVertex(data []byte) (id uint64, attr []byte, ok bool) {
	if len(data) < 9 || data[0] != tagVertex {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(data[1:]), data[9:], true
}

func encodeEdge(src, dst uint64, attr []byte) []byte {
	buf := make([]byte, 17+len(attr))
	buf[0] = tagEdge
	binary.LittleEndian.PutUint64(buf[1:], src)
	binary.LittleEndian.PutUint64(buf[9:], dst)
	copy(buf[17:], attr)
	return buf
}

func decodeEdge(data []byte) (src, dst uint64, attr []byte, ok bool) {
	if len(data) < 17 || data[0] != tagEdge {
		return 0, 0, nil, false
	}
	return binary.LittleEndian.Uint64(data[1:]), binary.LittleEndian.Uint64(data[9:]), data[17:], true
}

// NewGraph creates an empty graph with nStripes lock stripes (rounded up
// to a power of two) carrying the default TagGraph.
func NewGraph(sys *core.System, nStripes int) *Graph {
	return NewGraphTagged(sys, nStripes, TagGraph)
}

// NewGraphTagged creates an empty graph whose payloads carry tag.
func NewGraphTagged(sys *core.System, nStripes int, tag uint16) *Graph {
	n := 1
	for n < nStripes {
		n *= 2
	}
	g := &Graph{sys: sys, tag: tag, stripes: make([]graphStripe, n), mask: uint64(n - 1)}
	for i := range g.stripes {
		g.stripes[i].vertices = make(map[uint64]*vertexNode)
	}
	return g
}

func (g *Graph) stripe(id uint64) *graphStripe { return &g.stripes[id&g.mask] }

// lockStripes acquires the distinct stripes covering ids, in ascending
// stripe order, and returns an unlock function.
func (g *Graph) lockStripes(ids ...uint64) func() {
	seen := make([]int, 0, len(ids))
	for _, id := range ids {
		s := int(id & g.mask)
		dup := false
		for _, x := range seen {
			if x == s {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, s)
		}
	}
	sort.Ints(seen)
	for _, s := range seen {
		g.stripes[s].mu.Lock()
	}
	return func() {
		for i := len(seen) - 1; i >= 0; i-- {
			g.stripes[seen[i]].mu.Unlock()
		}
	}
}

// lockAll acquires every stripe (used by RemoveVertex, whose edge set is
// unknown until the vertex is inspected).
func (g *Graph) lockAll() func() {
	for i := range g.stripes {
		g.stripes[i].mu.Lock()
	}
	return func() {
		for i := len(g.stripes) - 1; i >= 0; i-- {
			g.stripes[i].mu.Unlock()
		}
	}
}

// AddVertex creates a vertex and, atomically with it, edges to the given
// neighbor ids (missing neighbors are skipped). It reports whether the
// vertex was created (false if the id already exists).
func (g *Graph) AddVertex(tid int, id uint64, attr []byte, neighbors []uint64) (bool, error) {
	g.sys.Clock().ChargeOp(tid)
	ids := append([]uint64{id}, neighbors...)
	unlock := g.lockStripes(ids...)
	defer unlock()
	if _, exists := g.stripe(id).vertices[id]; exists {
		return false, nil
	}
	err := g.sys.DoOp(tid, func(op core.Op) error {
		p, err := op.PNewTagged(g.tag, encodeVertex(id, attr))
		if err != nil {
			return err
		}
		v := &vertexNode{id: id, payload: p, edges: make(map[uint64]*edgeRef)}
		g.stripe(id).vertices[id] = v
		for _, nb := range neighbors {
			if nb == id {
				continue
			}
			nv, ok := g.stripe(nb).vertices[nb]
			if !ok {
				continue
			}
			if _, dup := v.edges[nb]; dup {
				continue
			}
			ep, err := op.PNewTagged(g.tag, encodeEdge(min64(id, nb), max64(id, nb), nil))
			if err != nil {
				return err
			}
			ref := &edgeRef{payload: ep}
			v.edges[nb] = ref
			nv.edges[id] = ref
		}
		return nil
	})
	return err == nil, err
}

// RemoveVertex deletes a vertex and all adjacent edges atomically,
// reporting whether the vertex existed.
func (g *Graph) RemoveVertex(tid int, id uint64) (bool, error) {
	g.sys.Clock().ChargeOp(tid)
	unlock := g.lockAll()
	defer unlock()
	v, ok := g.stripe(id).vertices[id]
	if !ok {
		return false, nil
	}
	err := g.sys.DoOp(tid, func(op core.Op) error {
		for nb, ref := range v.edges {
			if err := op.PDelete(ref.payload); err != nil {
				return err
			}
			if nv, ok := g.stripe(nb).vertices[nb]; ok {
				delete(nv.edges, id)
			}
		}
		if err := op.PDelete(v.payload); err != nil {
			return err
		}
		delete(g.stripe(id).vertices, id)
		return nil
	})
	return err == nil, err
}

// AddEdge creates the edge {src,dst} with the given attribute, reporting
// whether it was created (false if either vertex is missing or the edge
// exists). Per the paper, AddEdge does not touch any vertex payload.
func (g *Graph) AddEdge(tid int, src, dst uint64, attr []byte) (bool, error) {
	g.sys.Clock().ChargeOp(tid)
	if src == dst {
		return false, nil
	}
	unlock := g.lockStripes(src, dst)
	defer unlock()
	sv, ok1 := g.stripe(src).vertices[src]
	dv, ok2 := g.stripe(dst).vertices[dst]
	if !ok1 || !ok2 {
		return false, nil
	}
	if _, dup := sv.edges[dst]; dup {
		return false, nil
	}
	err := g.sys.DoOp(tid, func(op core.Op) error {
		ep, err := op.PNewTagged(g.tag, encodeEdge(min64(src, dst), max64(src, dst), attr))
		if err != nil {
			return err
		}
		ref := &edgeRef{payload: ep}
		sv.edges[dst] = ref
		dv.edges[src] = ref
		return nil
	})
	return err == nil, err
}

// RemoveEdge deletes the edge {src,dst}, reporting whether it existed.
func (g *Graph) RemoveEdge(tid int, src, dst uint64) (bool, error) {
	g.sys.Clock().ChargeOp(tid)
	unlock := g.lockStripes(src, dst)
	defer unlock()
	sv, ok := g.stripe(src).vertices[src]
	if !ok {
		return false, nil
	}
	ref, ok := sv.edges[dst]
	if !ok {
		return false, nil
	}
	err := g.sys.DoOp(tid, func(op core.Op) error {
		if err := op.PDelete(ref.payload); err != nil {
			return err
		}
		delete(sv.edges, dst)
		if dv, ok := g.stripe(dst).vertices[dst]; ok {
			delete(dv.edges, src)
		}
		return nil
	})
	return err == nil, err
}

// SetEdgeAttr updates an edge's attribute in place (exercises the
// UPDATE-payload path on graphs).
func (g *Graph) SetEdgeAttr(tid int, src, dst uint64, attr []byte) (bool, error) {
	g.sys.Clock().ChargeOp(tid)
	unlock := g.lockStripes(src, dst)
	defer unlock()
	sv, ok := g.stripe(src).vertices[src]
	if !ok {
		return false, nil
	}
	ref, ok := sv.edges[dst]
	if !ok {
		return false, nil
	}
	err := g.sys.DoOp(tid, func(op core.Op) error {
		np, err := op.Set(ref.payload, encodeEdge(min64(src, dst), max64(src, dst), attr))
		if err != nil {
			return err
		}
		ref.payload = np // single rewrite point shared by both endpoints
		return nil
	})
	return err == nil, err
}

// SetVertexAttr updates a vertex's attribute in place (AddEdge and
// RemoveEdge never touch vertex payloads, so this is the only vertex
// update path).
func (g *Graph) SetVertexAttr(tid int, id uint64, attr []byte) (bool, error) {
	g.sys.Clock().ChargeOp(tid)
	st := g.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.vertices[id]
	if !ok {
		return false, nil
	}
	err := g.sys.DoOp(tid, func(op core.Op) error {
		np, err := op.Set(v.payload, encodeVertex(id, attr))
		if err != nil {
			return err
		}
		v.payload = np
		return nil
	})
	return err == nil, err
}

// VertexAttr returns a copy of a vertex's attribute.
func (g *Graph) VertexAttr(tid int, id uint64) ([]byte, bool) {
	g.sys.Clock().ChargeOp(tid)
	st := g.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.vertices[id]
	if !ok {
		return nil, false
	}
	_, attr, okd := decodeVertex(g.sys.Read(tid, v.payload))
	if !okd {
		return nil, false
	}
	return append([]byte(nil), attr...), true
}

// HasVertex reports whether id exists.
func (g *Graph) HasVertex(tid int, id uint64) bool {
	g.sys.Clock().ChargeOp(tid)
	st := g.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.vertices[id]
	return ok
}

// HasEdge reports whether the edge {src,dst} exists.
func (g *Graph) HasEdge(tid int, src, dst uint64) bool {
	g.sys.Clock().ChargeOp(tid)
	unlock := g.lockStripes(src, dst)
	defer unlock()
	sv, ok := g.stripe(src).vertices[src]
	if !ok {
		return false
	}
	_, ok = sv.edges[dst]
	return ok
}

// Neighbors returns the neighbor ids of id (nil if absent).
func (g *Graph) Neighbors(tid int, id uint64) []uint64 {
	g.sys.Clock().ChargeOp(tid)
	st := g.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.vertices[id]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(v.edges))
	for nb := range v.edges {
		out = append(out, nb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Order returns the number of vertices; SizeEdges the number of edges.
func (g *Graph) Order() int {
	n := 0
	for i := range g.stripes {
		g.stripes[i].mu.Lock()
		n += len(g.stripes[i].vertices)
		g.stripes[i].mu.Unlock()
	}
	return n
}

// SizeEdges returns the number of (undirected) edges.
func (g *Graph) SizeEdges() int {
	n := 0
	for i := range g.stripes {
		g.stripes[i].mu.Lock()
		for _, v := range g.stripes[i].vertices {
			for nb := range v.edges {
				if v.id < nb {
					n++
				} else if v.id == nb {
					n++ // defensive; self loops are rejected on insert
				}
			}
		}
		g.stripes[i].mu.Unlock()
	}
	return n
}

// RecoverGraph rebuilds a graph from recovered payloads using the
// paper's parallel scheme: vertices are distributed cyclically among
// workers (owner = id mod workers), and each worker sorts the edges it
// encounters into per-owner buffers that the owners then apply — so the
// rebuild itself needs no locking.
func RecoverGraph(sys *core.System, nStripes int, chunks [][]*core.PBlk) (*Graph, error) {
	return RecoverGraphTagged(sys, nStripes, chunks, TagGraph)
}

// RecoverGraphTagged rebuilds a graph from the payloads carrying tag.
func RecoverGraphTagged(sys *core.System, nStripes int, chunks [][]*core.PBlk, tag uint16) (*Graph, error) {
	g := NewGraphTagged(sys, nStripes, tag)
	filtered := make([][]*core.PBlk, len(chunks))
	for i, c := range chunks {
		filtered[i] = core.FilterByTag(c, tag)
	}
	chunks = filtered
	workers := len(chunks)
	if workers == 0 {
		return g, nil
	}

	type edgeRec struct {
		src, dst uint64
		p        *core.PBlk
	}
	type vertRec struct {
		id uint64
		p  *core.PBlk
	}
	// Phase 1: classify payloads; route records to their owners.
	vertBuf := make([][][]vertRec, workers) // [from][to]
	edgeBuf := make([][][]edgeRec, workers)
	errs := make([]error, workers)
	threads := sys.Epochs().Config().MaxThreads
	var wg sync.WaitGroup
	for w := range chunks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vertBuf[w] = make([][]vertRec, workers)
			edgeBuf[w] = make([][]edgeRec, workers)
			tid := w % threads
			for _, p := range chunks[w] {
				data := sys.Read(tid, p)
				if len(data) == 0 {
					errs[w] = fmt.Errorf("%w: empty graph payload", ErrCorruptPayload)
					return
				}
				switch data[0] {
				case tagVertex:
					id, _, ok := decodeVertex(data)
					if !ok {
						errs[w] = ErrCorruptPayload
						return
					}
					o := int(id) % workers
					vertBuf[w][o] = append(vertBuf[w][o], vertRec{id, p})
				case tagEdge:
					src, dst, _, ok := decodeEdge(data)
					if !ok {
						errs[w] = ErrCorruptPayload
						return
					}
					// The edge goes to both endpoint owners; the lower
					// owner creates the shared ref in phase 2 and the
					// higher one links it in phase 3.
					o := int(src) % workers
					edgeBuf[w][o] = append(edgeBuf[w][o], edgeRec{src, dst, p})
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: each owner inserts its vertices (disjoint id sets, but
	// stripes are shared across owners, so stripe maps are filled under
	// the stripe lock).
	for o := 0; o < workers; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for w := 0; w < workers; w++ {
				for _, vr := range vertBuf[w][o] {
					st := g.stripe(vr.id)
					st.mu.Lock()
					st.vertices[vr.id] = &vertexNode{id: vr.id, payload: vr.p, edges: make(map[uint64]*edgeRef)}
					st.mu.Unlock()
				}
			}
		}(o)
	}
	wg.Wait()

	// Phase 3: owners apply their edge buffers, linking both endpoints.
	for o := 0; o < workers; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for w := 0; w < workers; w++ {
				for _, er := range edgeBuf[w][o] {
					unlock := g.lockStripes(er.src, er.dst)
					sv, ok1 := g.stripe(er.src).vertices[er.src]
					dv, ok2 := g.stripe(er.dst).vertices[er.dst]
					if ok1 && ok2 {
						ref := &edgeRef{payload: er.p}
						sv.edges[er.dst] = ref
						dv.edges[er.src] = ref
					} else {
						errs[o] = fmt.Errorf("%w: edge {%d,%d} references missing vertex", ErrCorruptPayload, er.src, er.dst)
					}
					unlock()
				}
			}
		}(o)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
