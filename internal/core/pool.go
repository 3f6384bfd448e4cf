package core

import (
	"sync"

	"probedis/internal/superset"
	"probedis/internal/tier"
)

// workPool is the request-scoped work-stealing pool and the pipeline's
// only scheduler: sections, superset decode chunks, hint tasks and
// scoring pieces are all its tasks, and every section of one request
// shares its slots, so tasks from a giant section drain onto workers that
// finished their own (small) sections. A task that cannot get a slot
// runs inline on the submitter, so progress never deadlocks on a
// saturated pool (a task may submit tasks of its own) and a workers<=1
// configuration degenerates to the exact serial order on the calling
// goroutine (which the cancellation sweep relies on).
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

// scoreWindow is the statistical scoring window in instructions.
const scoreWindow = 8

// scoreChunkBytes bounds one scoring task, so a window wider than that —
// the whole section under WithoutPrioritization and in HintsFor — still
// spreads over the pool instead of scoring on one worker.
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
		d.model.ScoreWindowInto(buf, g, scoreWindow, p.from, p.to)
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
