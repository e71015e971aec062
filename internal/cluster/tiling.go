// Package cluster is the multi-shard state plane of the assignment
// service. It has no HTTP surface of its own: *Cluster implements
// serve.Backend, and internal/serve's one set of /v1 handlers drives it
// exactly as it drives the single-engine backend — Enqueue for mutations,
// View for an assembled global problem to plan, cache and solve against,
// Stats for the per-shard rows, Shutdown to drain.
//
// The space is cut into square tiles, tiles are mapped to N shards by
// consistent hashing of their integer coordinates, and each shard owns its
// own engine.Engine behind its own single-writer apply loop
// (internal/applyloop, shared with serve.EngineBackend) and copy-on-write
// snapshot plane. Mutations route by entity location, so the write
// bandwidth scales with the shard count and each shard's per-batch
// valid-pair rebuild covers only its own tile set. Cluster.Enqueue is the
// one way in, and stamps every upsert with its recency epoch.
//
// Solves stay exact. The Coordinator assembles the global problem from the
// shard snapshots — the union of the per-shard pair sets plus the
// cross-shard pairs it derives from the model's reachability predicate —
// in canonical (task, worker) order, partitions it into connected
// components (internal/decompose), and solves it with exactly the
// machinery of core.Sharded: components interior to one shard solve
// shard-local, components whose entities span a tile boundary are
// escalated and solved over the assembled boundary sub-instance, and the
// per-component results merge through the exact min/sum merge. The
// differential suite pins the result bit-identical to a monolithic solve
// of the same population.
package cluster

import (
	"math"

	"rdbsc/internal/geo"
)

// defaultTileSize matches the default grid Lmax (0.3): a tile the size of
// the maximum travel distance keeps most reachability edges within one
// tile neighborhood while still splitting the unit square across shards.
const defaultTileSize = 0.3

// maxDiscTiles caps the tile enumeration of ShardsInDisc; a disc covering
// more tiles than this conservatively reports every shard reachable.
const maxDiscTiles = 4096

// Tiling maps locations to shards: the plane is cut into TileSize-sided
// square tiles and each tile's integer coordinates hash to one of Shards
// shards (FNV-1a). The mapping is deterministic — a pure function of the
// location and the tiling parameters — so every node, test, and replay
// routes an entity identically.
type Tiling struct {
	// Shards is the shard count (>= 1).
	Shards int
	// TileSize is the tile side length (default 0.3, the default grid
	// Lmax).
	TileSize float64
}

func (tl Tiling) withDefaults() Tiling {
	if tl.Shards <= 0 {
		tl.Shards = 1
	}
	if tl.TileSize <= 0 {
		tl.TileSize = defaultTileSize
	}
	return tl
}

// Tile returns the integer tile coordinates containing p.
func (tl Tiling) Tile(p geo.Point) (tx, ty int) {
	return int(math.Floor(p.X / tl.TileSize)), int(math.Floor(p.Y / tl.TileSize))
}

// ShardOfTile hashes tile coordinates to a shard index in [0, Shards).
func (tl Tiling) ShardOfTile(tx, ty int) int {
	// Inline FNV-1a over the two coordinates' little-endian bytes.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [2]uint64{uint64(int64(tx)), uint64(int64(ty))} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(tl.Shards))
}

// ShardOf returns the shard owning location p.
func (tl Tiling) ShardOf(p geo.Point) int {
	tx, ty := tl.Tile(p)
	return tl.ShardOfTile(tx, ty)
}

// ShardsInDisc reports, per shard, whether any tile of that shard
// intersects the closed disc of radius r around c — the conservative
// "which shards could a worker starting at c reach" question behind
// cross-shard pair discovery. A non-positive radius still marks the
// center's own shard. Discs spanning more than maxDiscTiles tiles mark
// every shard (exactness is preserved: callers re-check every candidate
// pair with the model's reachability predicate; this set only prunes).
func (tl Tiling) ShardsInDisc(c geo.Point, r float64) []bool {
	out := make([]bool, tl.Shards)
	out[tl.ShardOf(c)] = true
	if r <= 0 {
		return out
	}
	x0, y0 := tl.Tile(geo.Point{X: c.X - r, Y: c.Y - r})
	x1, y1 := tl.Tile(geo.Point{X: c.X + r, Y: c.Y + r})
	if n := (int64(x1-x0) + 1) * (int64(y1-y0) + 1); n > maxDiscTiles {
		for i := range out {
			out[i] = true
		}
		return out
	}
	marked := 1 // the center's shard
	for tx := x0; tx <= x1; tx++ {
		for ty := y0; ty <= y1; ty++ {
			// Nearest point of the tile's rectangle to the disc center.
			nx := clamp(c.X, float64(tx)*tl.TileSize, float64(tx+1)*tl.TileSize)
			ny := clamp(c.Y, float64(ty)*tl.TileSize, float64(ty+1)*tl.TileSize)
			dx, dy := nx-c.X, ny-c.Y
			if dx*dx+dy*dy <= r*r {
				s := tl.ShardOfTile(tx, ty)
				if !out[s] {
					out[s] = true
					marked++
					if marked == tl.Shards {
						return out
					}
				}
			}
		}
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
