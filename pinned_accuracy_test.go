// Pinned end-to-end accuracy values. The compact superset representation
// (packed side-table + lazy materialization) is a pure performance change:
// it must not move a single classification decision. These tests pin the
// truth-relative metrics of the core pipeline and the statistical baseline
// to the exact float64 values the eager-representation pipeline produced,
// so any representation change that perturbs results — reordered hints,
// lost flag bits, off-by-one materialization — fails loudly rather than
// showing up as a quiet accuracy drift in the next benchmark run.
package probedis

import (
	"fmt"
	"testing"

	"probedis/internal/baseline"
	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/eval"
)

// pinnedMetrics are formatted with %.15g — full float64 round-trip
// precision — so a comparison failure means the metric is bit-different.
type pinnedMetrics struct {
	errFactor, instF1, funcF1 string
}

// Captured from the pipeline before the packed side-table change
// (corpus: DefaultCorpus with PerProfile=2, Funcs=40; model:
// core.DefaultModel). The T2 baseline rounds the first value to 8.113.
var pinned = map[string]pinnedMetrics{
	"probedis": {
		errFactor: "8.11301486440486",
		instF1:    "0.995950499815932",
		funcF1:    "0.973058637083994",
	},
	"stat-only": {
		errFactor: "129.694769091115",
		instF1:    "0.935500253936008",
		funcF1:    "0.787878787878788",
	},
}

func TestAccuracyBitIdenticalToPinnedBaseline(t *testing.T) {
	model := core.DefaultModel()
	spec := eval.DefaultCorpus()
	spec.PerProfile = 2
	spec.Funcs = 40
	corpus, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	engines := []dis.Engine{core.New(model), &baseline.StatOnly{Model: model}}
	for _, e := range engines {
		want, ok := pinned[e.Name()]
		if !ok {
			t.Fatalf("no pinned values for engine %q", e.Name())
		}
		m := eval.ScoreCorpus(e, corpus)
		got := pinnedMetrics{
			errFactor: fmt.Sprintf("%.15g", m.ErrorFactor()),
			instF1:    fmt.Sprintf("%.15g", m.InstF1()),
			funcF1:    fmt.Sprintf("%.15g", m.FuncF1()),
		}
		if got != want {
			t.Errorf("%s: truth-relative metrics moved:\n got  %+v\n want %+v",
				e.Name(), got, want)
		}
	}
}
