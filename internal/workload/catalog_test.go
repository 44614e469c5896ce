package workload

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestCatalogCompleteness(t *testing.T) {
	want := map[string]bool{
		"bt.D.81": true, "cg.D.32": true, "ep.D.43": true, "ft.D.64": true,
		"is.D.32": true, "lu.D.42": true, "mg.D.32": true, "sp.D.81": true,
	}
	got := Catalog()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d types, want %d", len(got), len(want))
	}
	for _, typ := range got {
		if !want[typ.Name] {
			t.Errorf("unexpected catalog entry %q", typ.Name)
		}
	}
}

func TestCatalogSensitivityOrdering(t *testing.T) {
	// Paper ordering: bt > ep > lu > ft > cg > mg > sp > is.
	wantOrder := []string{"bt.D.81", "ep.D.43", "lu.D.42", "ft.D.64", "cg.D.32", "mg.D.32", "sp.D.81", "is.D.32"}
	got := Catalog()
	for i, name := range wantOrder {
		if got[i].Name != name {
			t.Fatalf("catalog[%d] = %s, want %s", i, got[i].Name, name)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Sensitivity() >= got[i-1].Sensitivity() {
			t.Errorf("sensitivity not strictly decreasing at %s", got[i].Name)
		}
	}
}

func TestCatalogMagnitudesMatchFig3(t *testing.T) {
	// Fig. 3 spans roughly 1.05×–1.8× at the minimum cap.
	bt := MustByName("bt")
	if bt.MaxSlowdown < 1.7 || bt.MaxSlowdown > 1.9 {
		t.Errorf("bt MaxSlowdown = %v, want ≈1.8", bt.MaxSlowdown)
	}
	is := MustByName("is")
	if is.MaxSlowdown < 1.0 || is.MaxSlowdown > 1.1 {
		t.Errorf("is MaxSlowdown = %v, want ≈1.05", is.MaxSlowdown)
	}
}

func TestCatalogValidModels(t *testing.T) {
	for _, typ := range Catalog() {
		m := typ.Model()
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", typ.Name, err)
		}
		if !m.Monotone(100) {
			t.Errorf("%s: model not monotone", typ.Name)
		}
		rel := typ.RelativeModel()
		if math.Abs(rel.TimeAt(typ.PMax)-1) > 1e-9 {
			t.Errorf("%s: relative model not 1.0 at PMax", typ.Name)
		}
		if math.Abs(rel.TimeAt(typ.PMin)-typ.MaxSlowdown) > 1e-9 {
			t.Errorf("%s: relative model %v at PMin, want %v", typ.Name, rel.TimeAt(typ.PMin), typ.MaxSlowdown)
		}
	}
}

func TestModelAbsoluteTimes(t *testing.T) {
	for _, typ := range Catalog() {
		m := typ.Model()
		uncapped := m.TimeAt(typ.PMax) * float64(typ.Epochs)
		if math.Abs(uncapped-typ.BaseSeconds) > 1e-6*typ.BaseSeconds {
			t.Errorf("%s: uncapped total %v s, want %v s", typ.Name, uncapped, typ.BaseSeconds)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("bt.D.81"); err != nil {
		t.Errorf("full name lookup failed: %v", err)
	}
	if _, err := ByName("sp"); err != nil {
		t.Errorf("prefix lookup failed: %v", err)
	}
	if _, err := ByName("xy.Z.1"); err == nil {
		t.Error("unknown name did not error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic on unknown name")
		}
	}()
	MustByName("nope")
}

func TestMostLeastSensitive(t *testing.T) {
	if got := MostSensitive().Name; got != "bt.D.81" {
		t.Errorf("MostSensitive = %s, want bt.D.81", got)
	}
	if got := LeastSensitive().Name; got != "is.D.32" {
		t.Errorf("LeastSensitive = %s, want is.D.32", got)
	}
}

func TestShortRunningAndLongRunning(t *testing.T) {
	// §7.2: IS and EP are the short types excluded from final schedules.
	shorts := map[string]bool{}
	for _, typ := range Catalog() {
		if typ.ShortRunning() {
			shorts[typ.Name] = true
		}
	}
	if len(shorts) != 2 || !shorts["is.D.32"] || !shorts["ep.D.43"] {
		t.Errorf("short types = %v, want is and ep", shorts)
	}
	lr := LongRunning()
	if len(lr) != 6 {
		t.Fatalf("LongRunning returned %d types, want 6", len(lr))
	}
	for _, typ := range lr {
		if typ.ShortRunning() {
			t.Errorf("LongRunning contains short type %s", typ.Name)
		}
	}
}

func TestScale(t *testing.T) {
	bt := MustByName("bt")
	big := bt.Scale(25)
	if big.Nodes != bt.Nodes*25 {
		t.Errorf("scaled nodes = %d", big.Nodes)
	}
	if big.Name != bt.Name || big.BaseSeconds != bt.BaseSeconds {
		t.Error("Scale changed unrelated fields")
	}
	if got := (Type{Nodes: 1}).Scale(0); got.Nodes != 1 {
		t.Errorf("Scale(0) nodes = %d, want clamp to 1", got.Nodes)
	}
}

func TestCatalogPowerRanges(t *testing.T) {
	for _, typ := range Catalog() {
		if typ.PMin != NodeMinCap {
			t.Errorf("%s: PMin = %v, want platform min %v", typ.Name, typ.PMin, NodeMinCap)
		}
		if typ.PMax <= typ.PMin || typ.PMax > NodeTDP {
			t.Errorf("%s: PMax = %v out of (%v, %v]", typ.Name, typ.PMax, typ.PMin, NodeTDP)
		}
	}
	if units.Power(NodeIdlePower) >= NodeMinCap {
		t.Error("idle power should be below minimum cap")
	}
}
