package oracle

import (
	"probedis/internal/core"
)

// InvShards is the invariant name for sharded/unsharded divergence.
const InvShards = "shards"

// seamWindow is how many bytes on each side of a shard seam get the
// seam-local diagnostic treatment: a divergence inside the window is
// reported with its distance to the seam, which is the signature of a
// seam-tiling bug (per-shard analysis restarting at the boundary).
const seamWindow = 64

// nearestSeam returns the interior seam closest to off and its distance
// (interior seams only — offsets 0 and n carry no merge risk). A plan
// with a single shard has no seams; dist is then -1.
func nearestSeam(plan [][2]int, off int) (seam, dist int) {
	seam, dist = -1, -1
	for _, s := range plan[1:] {
		d := off - s[0]
		if d < 0 {
			d = -d
		}
		if dist < 0 || d < dist {
			seam, dist = s[0], d
		}
	}
	return seam, dist
}

// CheckShardAgreement requires a sharded run's full Detail to be
// byte-identical to the unsharded reference. Classification divergences
// are labelled with the nearest shard seam: a divergence within
// seamWindow bytes of a seam is flagged as seam-local, the fingerprint
// of per-shard state leaking into the merge (e.g. a gap-fill tiling walk
// restarting at the shard boundary).
func CheckShardAgreement(rep *Report, sec string, plan [][2]int, want, got *core.Detail) {
	wr, gr := want.Result, got.Result
	if wr.Len() != gr.Len() {
		rep.addf(InvShards, sec, -1, "result sizes differ: unsharded %d, sharded %d", wr.Len(), gr.Len())
		return
	}
	for off := range wr.IsCode {
		if rep.full() {
			return
		}
		if wr.IsCode[off] == gr.IsCode[off] && wr.InstStart[off] == gr.InstStart[off] {
			continue
		}
		seam, dist := nearestSeam(plan, off)
		where := "far from any seam"
		if dist >= 0 && dist <= seamWindow {
			where = "seam-local"
		}
		rep.addf(InvShards, sec, off,
			"sharded run diverges (code %v/%v, inst %v/%v), nearest seam %#x at distance %d: %s",
			wr.IsCode[off], gr.IsCode[off], wr.InstStart[off], gr.InstStart[off], seam, dist, where)
	}
	if len(wr.FuncStarts) != len(gr.FuncStarts) {
		rep.addf(InvShards, sec, -1, "function start counts differ: %d vs %d",
			len(wr.FuncStarts), len(gr.FuncStarts))
	} else {
		for i := range wr.FuncStarts {
			if wr.FuncStarts[i] != gr.FuncStarts[i] {
				rep.addf(InvShards, sec, gr.FuncStarts[i], "function start %d differs: %#x vs %#x",
					i, wr.FuncStarts[i], gr.FuncStarts[i])
				break
			}
		}
	}
	wo, go_ := want.Outcome, got.Outcome
	if wo.Committed != go_.Committed || wo.Rejected != go_.Rejected || wo.Retracted != go_.Retracted {
		rep.addf(InvShards, sec, -1, "outcome counters differ: %d/%d/%d vs %d/%d/%d",
			wo.Committed, wo.Rejected, wo.Retracted, go_.Committed, go_.Rejected, go_.Retracted)
	}
	wt, gt := want.Tier, got.Tier
	switch {
	case (wt == nil) != (gt == nil):
		rep.addf(InvShards, sec, -1, "tier partition present in only one run")
	case wt != nil && len(wt.Windows) != len(gt.Windows):
		rep.addf(InvShards, sec, -1, "contested window counts differ: %d vs %d",
			len(wt.Windows), len(gt.Windows))
	case wt != nil:
		for i := range wt.Windows {
			if wt.Windows[i] != gt.Windows[i] {
				rep.addf(InvShards, sec, gt.Windows[i][0],
					"contested window %d differs: [%#x,%#x) vs [%#x,%#x)", i,
					wt.Windows[i][0], wt.Windows[i][1], gt.Windows[i][0], gt.Windows[i][1])
				break
			}
		}
	}
}

// CheckShards verifies the sharding exactness contract on one section:
// the section is disassembled once sharded at shardBytes and once
// unsharded (the seam windows are thereby recomputed with no shard
// boundary anywhere near them), the two runs must agree byte for byte
// (CheckShardAgreement), and the sharded run must independently satisfy
// every structural invariant (CheckDetail).
func CheckShards(d *core.Disassembler, code []byte, base uint64, entry int, shardBytes int) *Report {
	rep := &Report{}
	sharded := d.Clone(core.WithShardBytes(shardBytes))
	want, _ := d.Clone(core.WithShardBytes(0)).DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
	got, _ := sharded.DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
	plan := core.ShardPlan(len(code), sharded.ShardBytes())
	CheckShardAgreement(rep, ".text", plan, want, got)
	CheckDetail(rep, ".text", code, got)
	return rep
}
