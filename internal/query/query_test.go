package query

import (
	"testing"

	"desis/internal/operator"
)

func tumbling(id uint64, key uint32, lenMS int64, funcs ...operator.Func) Query {
	q := Query{ID: id, Key: key, Pred: All(), Type: Tumbling, Length: lenMS}
	for _, f := range funcs {
		q.Funcs = append(q.Funcs, operator.FuncSpec{Func: f})
	}
	return q
}

func TestValidate(t *testing.T) {
	good := []Query{
		tumbling(1, 0, 1000, operator.Sum),
		{ID: 2, Pred: All(), Type: Sliding, Length: 10, Slide: 5, Funcs: []operator.FuncSpec{{Func: operator.Average}}},
		{ID: 3, Pred: All(), Type: Session, Gap: 100, Funcs: []operator.FuncSpec{{Func: operator.Median}}},
		{ID: 4, Pred: All(), Type: UserDefined, Funcs: []operator.FuncSpec{{Func: operator.Max}}},
		{ID: 5, Pred: All(), Type: Tumbling, Measure: Count, Length: 100, Funcs: []operator.FuncSpec{{Func: operator.Sum}}},
	}
	for _, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", q, err)
		}
	}
	bad := []Query{
		{Pred: All(), Type: Tumbling, Length: 1000},                                                            // no funcs
		{Pred: All(), Type: Tumbling, Length: 0, Funcs: []operator.FuncSpec{{Func: operator.Sum}}},             // zero length
		{Pred: All(), Type: Sliding, Length: 5, Slide: 10, Funcs: []operator.FuncSpec{{Func: operator.Sum}}},   // slide > length
		{Pred: All(), Type: Session, Gap: 0, Funcs: []operator.FuncSpec{{Func: operator.Sum}}},                 // zero gap
		{Pred: All(), Type: Session, Gap: 5, Measure: Count, Funcs: []operator.FuncSpec{{Func: operator.Sum}}}, // count session
		{Pred: Predicate{Min: 5, Max: 5}, Type: Tumbling, Length: 10, Funcs: []operator.FuncSpec{{Func: operator.Sum}}},
		{Pred: All(), Type: Tumbling, Length: 10, Funcs: []operator.FuncSpec{{Func: operator.Quantile, Arg: 2}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted: %v", i, q)
		}
	}
}

func TestPredicate(t *testing.T) {
	all := All()
	if !all.Matches(1e300) || !all.Matches(-1e300) || !all.IsAll() {
		t.Error("All() predicate broken")
	}
	p := Range(10, 20)
	if !p.Matches(10) || p.Matches(20) || p.Matches(9.999) || !p.Matches(19.999) {
		t.Error("Range half-open semantics broken")
	}
	if !Above(5).Matches(5) || Above(5).Matches(4.9) {
		t.Error("Above broken")
	}
	if Below(5).Matches(5) || !Below(5).Matches(4.9) {
		t.Error("Below broken")
	}
}

func TestPredicateOverlap(t *testing.T) {
	cases := []struct {
		a, b Predicate
		want bool
	}{
		{Range(0, 10), Range(10, 20), false},
		{Range(0, 10), Range(5, 20), true},
		{Range(0, 10), Range(0, 10), true},
		{Above(80), Below(25), false},
		{All(), Range(1, 2), true},
	}
	for _, tc := range cases {
		if got := tc.a.Overlaps(tc.b); got != tc.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Overlaps(tc.a); got != tc.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestParse(t *testing.T) {
	q, err := Parse("tumbling(1s) average key=3 value>=80")
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Tumbling || q.Length != 1000 || q.Key != 3 || q.Measure != Time {
		t.Errorf("parsed %+v", q)
	}
	if !q.Pred.Matches(80) || q.Pred.Matches(79.9) {
		t.Errorf("predicate %v", q.Pred)
	}
	if len(q.Funcs) != 1 || q.Funcs[0].Func != operator.Average {
		t.Errorf("funcs %v", q.Funcs)
	}

	q = MustParse("sliding(10s,2s) sum,count key=1")
	if q.Type != Sliding || q.Length != 10000 || q.Slide != 2000 || len(q.Funcs) != 2 {
		t.Errorf("parsed %+v", q)
	}

	q = MustParse("session(30s) median key=2 value<25")
	if q.Type != Session || q.Gap != 30000 || q.Pred.Matches(25) || !q.Pred.Matches(24.9) {
		t.Errorf("parsed %+v", q)
	}

	q = MustParse("tumbling(1000ev) quantile(0.95)")
	if q.Measure != Count || q.Length != 1000 || q.Funcs[0].Arg != 0.95 {
		t.Errorf("parsed %+v", q)
	}

	q = MustParse("userdefined max key=0")
	if q.Type != UserDefined {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"average key=1",                       // no window
		"tumbling(1s)",                        // no funcs
		"tumbling(1s) bogus",                  // unknown func
		"tumbling(1s,2s) sum",                 // extent count
		"tumbling(xs) sum",                    // bad extent
		"session(100ev) median",               // count session
		"tumbling(1s) sum key=abc",            // bad key
		"tumbling(1s) sum value>>5",           // bad predicate
		"tumbling(1s) quantile(2) sum",        // bad quantile
		"sliding(1s,1000ev) sum",              // mixed measures
		"tumbling(1s) sum value>=x",           // bad predicate number
		"tumbling(1s) quantile(x)",            // bad quantile arg
		"sliding(1s,2s) sum",                  // slide > length
		"tumbling(1s) sum key=99999999999999", // key overflow
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	cases := []string{
		"tumbling(1000ms) average key=3 value>=80",
		"sliding(10000ms,2000ms) sum,count key=1",
		"session(30000ms) median key=2 value<25",
		"tumbling(1000ev) quantile(0.95) key=0",
		"userdefined max key=0",
	}
	for _, s := range cases {
		q := MustParse(s)
		again := MustParse(q.String())
		if q.String() != again.String() {
			t.Errorf("round trip changed %q -> %q", q.String(), again.String())
		}
	}
}
