package core

import (
	"sync"

	"probedis/internal/superset"
	"probedis/internal/tier"
)

// minShardBytes floors the configurable shard size. It exceeds the widest
// structural reach of any per-shard analysis — the 15-byte maximum
// instruction length, the 24-byte bounds-check lookback and the ~120-byte
// dispatch/literal chain walks (8 steps x 15 bytes) — so a shard's work
// is mostly local even though correctness never depends on it: every
// analysis reads the section through the global windowed graph, which
// serves any offset, seam or not.
const minShardBytes = 256

// ShardPlan tiles [0, n) into consecutive shards of at most shardBytes
// bytes (the last one short). shardBytes <= 0, or a section no larger
// than one shard, yields a single shard covering the section. The plan is
// a pure function of (n, shardBytes): the oracle recomputes it to locate
// seams, and tests sweep shardBytes to steer seams onto constructs.
func ShardPlan(n, shardBytes int) [][2]int {
	if shardBytes <= 0 || n <= shardBytes {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+shardBytes-1)/shardBytes)
	for from := 0; from < n; from += shardBytes {
		to := from + shardBytes
		if to > n {
			to = n
		}
		out = append(out, [2]int{from, to})
	}
	return out
}

// shardedFor reports whether a section of n bytes is split into at least
// two shards under this configuration, which is what moves it onto the
// windowed graph backend (superset.BuildLazy).
func (d *Disassembler) shardedFor(n int) bool {
	return d.shardBytes > 0 && n > d.shardBytes
}

// lazyBlockShift picks the windowed graph's block granularity: the
// largest power of two not exceeding the shard size, clamped to
// [4 KiB, 1 MiB] so tiny test shards still exercise real faulting and
// huge shards do not decode megabytes per point lookup.
func (d *Disassembler) lazyBlockShift() uint {
	shift := uint(12)
	for shift < 20 && 1<<(shift+1) <= d.shardBytes {
		shift++
	}
	return shift
}

// maxResidentBlocks caps the windowed graph's working set: every worker
// gets its shard's worth of blocks plus one for cross-seam reads, plus
// slack for the serial correction/CFG phases' locality. The cap scales
// with shard size and worker count, never with section size — that is
// the O(shard) residency claim, and the sharded benchmark measures it.
func (d *Disassembler) maxResidentBlocks() int {
	blockBytes := 1 << d.lazyBlockShift()
	perShard := (d.shardBytes + blockBytes - 1) / blockBytes
	return d.Workers()*(perShard+1) + 4
}

// workPool is the request-scoped work-stealing pool: every section of one
// request shares its slots, so shard tasks from a giant section drain
// onto workers that finished their own (small) sections instead of
// serializing behind the section fan-out. A task that cannot get a slot
// runs inline on the submitter, so progress never deadlocks on a
// saturated pool and a workers<=1 configuration degenerates to the exact
// serial order (which the cancellation sweep relies on).
type workPool struct {
	sem chan struct{} // nil: always run inline (serial)
}

func newWorkPool(workers int) *workPool {
	if workers <= 1 {
		return &workPool{}
	}
	return &workPool{sem: make(chan struct{}, workers)}
}

// run executes fn(0..n-1), stealing pool slots for parallelism where
// available, and returns when all n calls finished.
func (p *workPool) run(n int, fn func(int)) {
	if p == nil || p.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}

// windowScores holds the statistical scores one contested window at a
// time, sized O(contested bytes) instead of O(section).
type windowScores struct {
	windows [][2]int
	bufs    [][]float64
}

// scoreChunkBytes bounds one scoring task, so a window wider than that —
// the whole section under WithoutPrioritization — still spreads over the
// pool instead of scoring on one worker.
const scoreChunkBytes = 1 << 14

// score fills one buffer per contested window on the pool, one task per
// window or per scoreChunkBytes piece of a wider one (the pieces are
// disjoint, so writes never overlap; values are bit-identical to a full
// pass). The buffers are consecutive slices of one contested-size array.
func (ws *windowScores) score(d *Disassembler, g *superset.Graph, part *tier.Partition, pool *workPool) {
	ws.windows = part.Windows
	ws.bufs = make([][]float64, len(part.Windows))
	backing := make([]float64, part.ContestedBytes)
	type piece struct{ win, from, to int }
	pieces := make([]piece, 0, len(part.Windows))
	for i, w := range part.Windows {
		ws.bufs[i], backing = backing[:w[1]-w[0]], backing[w[1]-w[0]:]
		for from := w[0]; from < w[1]; from += scoreChunkBytes {
			pieces = append(pieces, piece{i, from, min(from+scoreChunkBytes, w[1])})
		}
	}
	pool.run(len(pieces), func(j int) {
		p := pieces[j]
		buf := ws.bufs[p.win][p.from-part.Windows[p.win][0]:]
		d.model.ScoreWindowInto(buf, g, d.window, p.from, p.to)
	})
}

// at serves a point lookup (correct.Options.ScoreAt): binary search for
// the window containing off. Offsets outside every contested window
// return 0 — gap fill only consults gap starts, which always lie inside
// a contested window, so this case is never load-bearing.
func (ws *windowScores) at(off int) float64 {
	lo, hi := 0, len(ws.windows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ws.windows[mid][0] <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || off >= ws.windows[lo-1][1] {
		return 0
	}
	return ws.bufs[lo-1][off-ws.windows[lo-1][0]]
}
