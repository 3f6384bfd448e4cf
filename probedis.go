// Package probedis is the public facade of a metadata-free disassembler
// for stripped x86-64 ELF binaries, reproducing "Accurate Disassembly of
// Complex Binaries Without Use of Compiler Metadata" (ASPLOS 2023).
//
// It combines superset disassembly, data-driven statistical models
// (statistical properties of data detect code), static/behavioural
// analyses (behavioural properties of code flag data) and a prioritized
// error-correction algorithm into a byte-precise code/data classification
// with recovered instructions, basic blocks and functions.
//
// Quick use:
//
//	d := probedis.New(probedis.DefaultModel())
//	res := d.Disassemble(textBytes, baseAddr, entryOff)
//
// or, for an on-disk ELF:
//
//	secs, err := d.DisassembleELF(image)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduced evaluation.
package probedis

import (
	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/stats"
)

// Disassembler is the configured pipeline; safe for concurrent use.
type Disassembler = core.Disassembler

// Result is a byte-precise classification of one text section.
type Result = dis.Result

// Model holds the trained statistical code/data models.
type Model = stats.Model

// Option configures a Disassembler (ablations, thresholds, windows).
type Option = core.Option

// New returns a Disassembler using the given model.
func New(model *Model, opts ...Option) *Disassembler { return core.New(model, opts...) }

// DefaultModel returns the cached default statistical model, trained on a
// built-in corpus on first use.
func DefaultModel() *Model { return core.DefaultModel() }

// Re-exported pipeline options.
var (
	WithoutStats          = core.WithoutStats
	WithoutBehavior       = core.WithoutBehavior
	WithoutJumpTables     = core.WithoutJumpTables
	WithoutPrioritization = core.WithoutPrioritization
	WithThreshold         = core.WithThreshold
	WithWorkers           = core.WithWorkers
)
