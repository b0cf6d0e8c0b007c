package serve

import (
	"reflect"
	"testing"

	"accmulti/internal/rt"
)

// TestOptionsSurface pins the exported fields of the two option structs
// a caller can reach — the runtime's and the accd request's — so that a
// new knob is a reviewed change to these lists, not a drive-by.
func TestOptionsSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(rt.Options{}), []string{
			"Mode", "ChunkBytes",
			"DisableDistribution", "DisableLayoutTransform", "DisableTwoLevelDirty", "DisableReloadSkip",
			"BalanceLoad", "Async", "Tracer", "Auditor",
			"DisableDegradation", "Interrupt", "Reference", "Sabotage",
		}},
		{reflect.TypeOf(RunOptions{}), []string{"NoAsync", "BalanceLoad", "Audit"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			if f := tc.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s fields:\n got %v\nwant %v", tc.typ, got, tc.want)
		}
	}
}
