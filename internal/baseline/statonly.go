package baseline

import (
	"sort"

	"probedis/internal/dis"
	"probedis/internal/stats"
	"probedis/internal/superset"
)

// StatOnly is the purely data-driven baseline (XDA-style): the same
// sequence model the core uses, but with no structural analyses, no
// viability filtering and no prioritized correction. Offsets whose chain
// scores positive are tiled greedily in score order; conflicts are
// resolved first-come-first-served.
type StatOnly struct {
	Model  *stats.Model
	Window int
}

// Name implements dis.Engine.
func (s *StatOnly) Name() string { return "stat-only" }

// Disassemble implements dis.Engine.
func (s *StatOnly) Disassemble(code []byte, base uint64, entry int) *dis.Result {
	w := s.Window
	if w == 0 {
		w = 8
	}
	g := superset.Build(code, base)
	scores := s.Model.ScoreAll(g, w)
	res := dis.NewResult(base, len(code))

	order := make([]int, 0, len(code))
	for off := range code {
		if g.Valid(off) && scores[off] > 0 {
			order = append(order, off)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if scores[order[i]] != scores[order[j]] {
			return scores[order[i]] > scores[order[j]]
		}
		return order[i] < order[j]
	})

	owner := make([]int32, len(code))
	for i := range owner {
		owner[i] = -1
	}
	for _, off := range order {
		length := g.At(off).Len()
		ok := true
		for i := off; i < off+length; i++ {
			if owner[i] != -1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := off; i < off+length; i++ {
			owner[i] = int32(off)
			res.IsCode[i] = true
		}
		res.InstStart[off] = true
	}

	if entry >= 0 && entry < len(code) && res.InstStart[entry] {
		res.FuncStarts = append(res.FuncStarts, entry)
	}
	res.FuncStarts = callTargets(g, res, res.FuncStarts)
	return res
}

// Engines returns the full baseline set used by the evaluation; model is
// shared with the core engine to keep the comparison about the algorithms,
// not the training data.
func Engines(model *stats.Model) []dis.Engine {
	return []dis.Engine{
		LinearSweep{},
		Recursive{},
		RecursiveHeur{},
		&StatOnly{Model: model},
	}
}

// Interface conformance checks.
var (
	_ dis.Engine = LinearSweep{}
	_ dis.Engine = Recursive{}
	_ dis.Engine = RecursiveHeur{}
	_ dis.Engine = (*StatOnly)(nil)
)
