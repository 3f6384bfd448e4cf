package core

import (
	"sync"

	"probedis/internal/analysis"
	"probedis/internal/obs"
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

// statPieceBytes bounds the contested bytes one statistical walk task
// covers, so a window wider than that — the whole section under
// WithoutPrioritization — still spreads over the pool, while a run of
// small windows shares one task instead of paying for one each.
const statPieceBytes = 1 << 14

// statRecords runs analysis.StatRecords over the contested windows on
// the pool, inside a "stats" child span of sp, then packs the records in
// a "stathints" child span and returns them in ascending offset order.
// Each task walks one piece: a statPieceBytes slice of a wide window or a
// run of whole small windows. It appends into its own slot of one buffer,
// sized by the viable offsets of its piece (only those can emit), and the
// slots are then packed in piece order, so the result is the same at
// every worker count.
func (d *Disassembler) statRecords(g *superset.Graph, viable []bool, part *tier.Partition, pool *workPool, sp *obs.Span) []analysis.StatRec {
	ssp := sp.StartChild("stats")
	windows := part.Windows
	// A piece covers windows w0..w1-1, clipped to [from, to).
	type piece struct {
		w0, w1, from, to int
		out              []analysis.StatRec
	}
	pieces := make([]piece, 0, part.ContestedBytes/statPieceBytes+1)
	for w := 0; w < len(windows); {
		a, b := windows[w][0], windows[w][1]
		if b-a > statPieceBytes {
			for from := a; from < b; from += statPieceBytes {
				pieces = append(pieces, piece{w0: w, w1: w + 1, from: from, to: min(from+statPieceBytes, b)})
			}
			w++
			continue
		}
		w1, size := w, 0
		for w1 < len(windows) && size+windows[w1][1]-windows[w1][0] <= statPieceBytes {
			size += windows[w1][1] - windows[w1][0]
			w1++
		}
		pieces = append(pieces, piece{w0: w, w1: w1, from: a, to: windows[w1-1][1]})
		w = w1
	}
	ranges := func(p *piece, fn func(from, to int)) {
		for w := p.w0; w < p.w1; w++ {
			fn(max(windows[w][0], p.from), min(windows[w][1], p.to))
		}
	}
	slots := make([]int, len(pieces)+1)
	for i := range pieces {
		n := slots[i]
		ranges(&pieces[i], func(from, to int) {
			for _, v := range viable[from:to] {
				if v {
					n++
				}
			}
		})
		slots[i+1] = n
	}
	recs := make([]analysis.StatRec, slots[len(pieces)])
	pool.run(len(pieces), func(i int) {
		p := &pieces[i]
		p.out = recs[slots[i]:slots[i]:slots[i+1]]
		ranges(p, func(from, to int) {
			p.out = analysis.StatRecords(g, viable, d.model, d.penaltyWeight, d.threshold, from, to, p.out)
		})
	})
	ssp.Count("scored", int64(part.ContestedBytes))
	ssp.End()

	hsp := sp.StartChild("stathints")
	n := 0
	for _, p := range pieces {
		n += copy(recs[n:], p.out)
	}
	recs = recs[:n]
	if d.flatPrio {
		for i := range recs {
			recs[i].Score = 0
		}
	}
	hsp.Count("hints", int64(n))
	hsp.End()
	return recs
}
