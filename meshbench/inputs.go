package main

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"hash/fnv"

	om "obliviousmesh"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/serial"
	"obliviousmesh/internal/workload"
)

// inputs holds one workload's generated batches and, for k=1, the
// reference answer to each. All of it is built before any timing
// starts; the servers only ever see the pairs.
type inputs struct {
	m     *mesh.Mesh
	k     int
	bulk  [][]mesh.Pair // distinct closed-loop batches, sent in order
	small [][]mesh.Pair // distinct open-loop batches, sent in order

	// bulkRef[i] and smallRef[i] hash the wire2 payload a same-seed
	// reference router gives for that batch (k=1 only: k>1 answers
	// depend on the load history, so they are checked for validity).
	bulkRef, smallRef []uint64

	// refCongestion is the maximum edge load of one pass over the bulk
	// batches, from the reference paths (k=1 only).
	refCongestion int64
}

// mix derives independent generator seeds from the workload seed
// (splitmix64), so seeds n and n+1 never share a pair set.
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newInputs(sp *spec, ws workloadSpec, seed uint64) (*inputs, error) {
	m, err := mesh.Square(2, sp.Side)
	if err != nil {
		return nil, err
	}
	var src []mesh.Pair
	switch ws.Pairs {
	case "permutation":
		src = workload.RandomPermutation(m, mix(seed, 1)).Pairs
	case "hot":
		src = workload.RandomPairs(m, sp.HotPairs, mix(seed, 2)).Pairs
	default:
		return nil, fmt.Errorf("unknown pair source %q", ws.Pairs)
	}
	in := &inputs{m: m, k: ws.KSample, bulk: cut(src, sp.BulkBatch), small: cut(src, sp.SmallBatch)}
	if in.k > 1 {
		return in, nil
	}
	ref, err := om.NewRouter(m, om.RouterOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	pass := om.NewLiveLoads(m, 1)
	for _, b := range in.bulk {
		in.bulkRef = append(in.bulkRef, payloadHash(m, om.SelectAllSegTracked(ref, b, pass)))
	}
	in.refCongestion = pass.Max()
	scratch := om.NewLiveLoads(m, 1)
	for _, b := range in.small {
		in.smallRef = append(in.smallRef, payloadHash(m, om.SelectAllSegTracked(ref, b, scratch)))
	}
	return in, nil
}

// cut splits src into consecutive batches of n pairs; a source shorter
// than n yields one batch that repeats it cyclically.
func cut(src []mesh.Pair, n int) [][]mesh.Pair {
	if len(src) < n {
		b := make([]mesh.Pair, n)
		for i := range b {
			b[i] = src[i%len(src)]
		}
		return [][]mesh.Pair{b}
	}
	var out [][]mesh.Pair
	for lo := 0; lo+n <= len(src); lo += n {
		out = append(out, src[lo:lo+n])
	}
	return out
}

// payloadHash hashes the OMP2 payload of sps: the bytes a client's raw
// wire2 fetch hands over.
func payloadHash(m *mesh.Mesh, sps []mesh.SegPath) uint64 {
	var buf bytes.Buffer
	if err := serial.EncodeWireSeg(&buf, m, sps); err != nil {
		panic(err) // reference paths are valid by construction
	}
	h := fnv.New64a()
	if _, _, err := serial.CopyRawWireSeg(h, &buf, m, len(sps)); err != nil {
		panic(err)
	}
	return h.Sum64()
}

// fetcher sends batches through one client and checks every answer.
// It is used by one goroutine at a time.
type fetcher struct {
	in  *inputs
	c   *om.Client
	h   hash.Hash64
	sps []mesh.SegPath // last decoded batch (k>1)
}

func newFetcher(in *inputs, c *om.Client) *fetcher {
	return &fetcher{in: in, c: c, h: fnv.New64a()}
}

// fetch routes pairs: a k=1 batch as a raw wire2 fetch hashed against
// ref, a k>1 batch decoded with RouteBatchSeg and each path validated
// on the mesh against its pair.
func (f *fetcher) fetch(ctx context.Context, pairs []mesh.Pair, ref uint64) error {
	if f.in.k <= 1 {
		f.h.Reset()
		if _, err := f.c.RouteBatchWire2Raw(ctx, pairs, 0, f.h); err != nil {
			return err
		}
		if f.h.Sum64() != ref {
			return errMismatch
		}
		return nil
	}
	sps, err := f.c.RouteBatchSeg(ctx, pairs)
	if err != nil {
		return err
	}
	f.sps = sps
	return validate(f.in.m, pairs, sps)
}

func validate(m *mesh.Mesh, pairs []mesh.Pair, sps []mesh.SegPath) error {
	if len(sps) != len(pairs) {
		return fmt.Errorf("%d paths for %d pairs", len(sps), len(pairs))
	}
	for i, sp := range sps {
		if err := m.ValidateSeg(sp, pairs[i].S, pairs[i].T); err != nil {
			return fmt.Errorf("path %d: %w", i, err)
		}
	}
	return nil
}

func (in *inputs) bulkBatch(i int) ([]mesh.Pair, uint64) {
	j := i % len(in.bulk)
	if in.bulkRef == nil {
		return in.bulk[j], 0
	}
	return in.bulk[j], in.bulkRef[j]
}

func (in *inputs) smallBatch(i int) ([]mesh.Pair, uint64) {
	j := i % len(in.small)
	if in.smallRef == nil {
		return in.small[j], 0
	}
	return in.small[j], in.smallRef[j]
}
