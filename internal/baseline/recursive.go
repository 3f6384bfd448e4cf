package baseline

import (
	"sort"

	"probedis/internal/dis"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// Recursive is pure recursive traversal from the entry point: it follows
// fallthrough edges, direct branches and calls, and stops at indirect
// control flow. Every unreached byte is data. Sound on reached code,
// systematically incomplete on binaries with indirect dispatch.
type Recursive struct{}

// Name implements dis.Engine.
func (Recursive) Name() string { return "recursive" }

// Disassemble implements dis.Engine.
func (Recursive) Disassemble(code []byte, base uint64, entry int) *dis.Result {
	g := superset.Build(code, base)
	res := dis.NewResult(base, len(code))
	var seeds []int
	if entry >= 0 {
		seeds = append(seeds, entry)
	}
	traverse(g, res, seeds)
	if entry >= 0 && entry < len(code) && res.InstStart[entry] {
		res.FuncStarts = append(res.FuncStarts, entry)
	}
	// Call targets found during traversal become function starts.
	res.FuncStarts = callTargets(g, res, res.FuncStarts)
	return res
}

// traverse marks everything reachable from seeds.
func traverse(g *superset.Graph, res *dis.Result, seeds []int) {
	stack := append([]int(nil), seeds...)
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if off < 0 || off >= g.Len() || res.InstStart[off] || !g.Valid(off) {
			continue
		}
		length := g.At(off).Len()
		res.InstStart[off] = true
		for i := off; i < off+length && i < g.Len(); i++ {
			res.IsCode[i] = true
		}
		ft, tgt := g.ForcedSuccs(off)
		for _, s := range [2]int{ft, tgt} {
			if s >= 0 {
				stack = append(stack, s)
			}
		}
	}
}

// callTargets collects direct-call targets among decoded instructions.
func callTargets(g *superset.Graph, res *dis.Result, into []int) []int {
	seen := map[int]bool{}
	for _, f := range into {
		seen[f] = true
	}
	for off := 0; off < g.Len(); off++ {
		if !res.InstStart[off] || g.At(off).Flow() != x86.FlowCall {
			continue
		}
		if t := g.TargetOff(off); t >= 0 && res.InstStart[t] && !seen[t] {
			seen[t] = true
			into = append(into, t)
		}
	}
	sort.Ints(into)
	return into
}

// RecursiveHeur is recursive traversal extended with the gap heuristics
// interactive disassemblers use: after the pure traversal converges, it
// scans still-unclassified gaps for function-prologue byte patterns and
// resumes traversal from them, iterating to fixpoint.
type RecursiveHeur struct{}

// Name implements dis.Engine.
func (RecursiveHeur) Name() string { return "recursive+heur" }

// prologueBytes are the prologue patterns the gap scan recognises.
var prologueBytes = [][]byte{
	{0xf3, 0x0f, 0x1e, 0xfa}, // endbr64
	{0x55, 0x48, 0x89, 0xe5}, // push rbp; mov rbp,rsp
	{0x55, 0x48, 0x83, 0xec}, // push rbp; sub rsp
	{0x48, 0x83, 0xec},       // sub rsp, imm8
	{0x48, 0x81, 0xec},       // sub rsp, imm32
	{0x53, 0x48, 0x83, 0xec}, // push rbx; sub rsp
	{0x41, 0x57, 0x41, 0x56}, // push r15; push r14
}

// Disassemble implements dis.Engine.
func (RecursiveHeur) Disassemble(code []byte, base uint64, entry int) *dis.Result {
	g := superset.Build(code, base)
	res := dis.NewResult(base, len(code))
	seeds := []int{}
	if entry >= 0 {
		seeds = append(seeds, entry)
	}
	traverse(g, res, seeds)
	for {
		var more []int
		for off := 0; off < len(code); off++ {
			if res.IsCode[off] || !g.Valid(off) {
				continue
			}
			for _, p := range prologueBytes {
				if off+len(p) <= len(code) && match(code[off:], p) {
					more = append(more, off)
					break
				}
			}
		}
		if len(more) == 0 {
			break
		}
		before := res.NumInsts()
		traverse(g, res, more)
		if res.NumInsts() == before {
			break
		}
	}
	if entry >= 0 && entry < len(code) && res.InstStart[entry] {
		res.FuncStarts = append(res.FuncStarts, entry)
	}
	res.FuncStarts = callTargets(g, res, res.FuncStarts)
	return res
}

func match(b, pat []byte) bool {
	for i := range pat {
		if b[i] != pat[i] {
			return false
		}
	}
	return true
}
