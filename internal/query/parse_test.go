package query

import (
	"math"
	"reflect"
	"testing"

	"desis/internal/operator"
)

// The compact spellings of the query shapes a SQL-style form once accepted.
// Each expected Query is the value that form produced for it, so no shape
// was lost with it: count windows, value ranges, bare milliseconds, count
// slides and templates all parse to the same Query from compact text.

// TestParseSQLBasic: "SELECT avg(value), max(value) FROM stream WHERE key =
// 3 AND value >= 80 WINDOW TUMBLING 1s".
func TestParseSQLBasic(t *testing.T) {
	got, err := Parse("tumbling(1s) average,max key=3 value>=80")
	if err != nil {
		t.Fatal(err)
	}
	want := Query{
		Key:  3,
		Pred: Predicate{Min: 80, Max: math.Inf(1)},
		Type: Tumbling, Measure: Time, Length: 1000,
		Funcs: []operator.FuncSpec{{Func: operator.Average}, {Func: operator.Max}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v\nwant %#v", got, want)
	}
	if !got.Pred.Matches(80) || got.Pred.Matches(79.999) {
		t.Errorf("pred: %v", got.Pred)
	}
}

func TestParseSQLVariants(t *testing.T) {
	cases := []struct {
		sql, compact string
		want         Query
	}{
		{
			"SELECT quantile(value, 0.95) FROM stream WINDOW SLIDING 10s SLIDE 2s",
			"sliding(10s,2s) quantile(0.95)",
			Query{Pred: All(), Type: Sliding, Measure: Time, Length: 10000, Slide: 2000,
				Funcs: []operator.FuncSpec{{Func: operator.Quantile, Arg: 0.95}}},
		},
		{
			"select median(value) from s where key = * window session gap 30s",
			"session(30s) median key=*",
			Query{AnyKey: true, Pred: All(), Type: Session, Measure: Time, Gap: 30000,
				Funcs: []operator.FuncSpec{{Func: operator.Median}}},
		},
		{
			"SELECT sum(value) FROM stream WINDOW TUMBLING 1000 EVENTS",
			"tumbling(1000ev) sum",
			Query{Pred: All(), Type: Tumbling, Measure: Count, Length: 1000,
				Funcs: []operator.FuncSpec{{Func: operator.Sum}}},
		},
		{
			"SELECT max(value) FROM trips WINDOW USERDEFINED",
			"userdefined max",
			Query{Pred: All(), Type: UserDefined, Measure: Time,
				Funcs: []operator.FuncSpec{{Func: operator.Max}}},
		},
		{
			"SELECT count(value) FROM s WHERE value >= 10 AND value < 20 WINDOW TUMBLING 500ms",
			"tumbling(500ms) count value>=10 value<20",
			Query{Pred: Predicate{Min: 10, Max: 20}, Type: Tumbling, Measure: Time, Length: 500,
				Funcs: []operator.FuncSpec{{Func: operator.Count}}},
		},
		{
			"SELECT geomean(value) FROM s WINDOW SLIDING 100 EVENTS SLIDE 10 EVENTS",
			"sliding(100ev,10ev) geomean",
			Query{Pred: All(), Type: Sliding, Measure: Count, Length: 100, Slide: 10,
				Funcs: []operator.FuncSpec{{Func: operator.GeoMean}}},
		},
		{
			"SELECT sum(value) FROM s WINDOW TUMBLING 250",
			"tumbling(250) sum", // bare milliseconds
			Query{Pred: All(), Type: Tumbling, Measure: Time, Length: 250,
				Funcs: []operator.FuncSpec{{Func: operator.Sum}}},
		},
	}
	for _, tc := range cases {
		got, err := Parse(tc.compact)
		if err != nil {
			t.Errorf("Parse(%q) (was %q): %v", tc.compact, tc.sql, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) (was %q):\n got %#v\nwant %#v", tc.compact, tc.sql, got, tc.want)
		}
	}
}
