package query

import (
	"strings"
	"testing"
)

// FuzzParseQuery feeds arbitrary strings to Parse: it must return errors,
// never panic, and anything it accepts must Validate and survive a
// String/Parse fixpoint. The SELECT seeds are spellings of a SQL-style form
// the parser no longer reads; an input that opens with SELECT must fail.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"tumbling(1s) average key=3 value>=80",
		"sliding(10s,2s) sum,count key=1",
		"session(30s) median key=2 value<25",
		"tumbling(1000ev) quantile(0.95) key=7",
		"userdefined max key=*",
		"SELECT avg(value), max(value) FROM stream WHERE key = 3 AND value >= 80 WINDOW TUMBLING 1s",
		"SELECT quantile(value, 0.95) FROM s WINDOW SLIDING 10s SLIDE 2s",
		"SELECT median(value) FROM s WHERE key = * WINDOW SESSION GAP 30s",
		"",
		"tumbling(",
		"SELECT FROM WHERE",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		if f := strings.Fields(s); strings.EqualFold(f[0], "SELECT") {
			t.Fatalf("accepted SQL-style input %q as %v", s, q)
		}
		probe := q
		probe.AnyKey = false
		if verr := probe.Validate(); verr != nil {
			t.Fatalf("accepted %q but it fails Validate: %v", s, verr)
		}
		str := q.String()
		again, err := Parse(str)
		if err != nil {
			t.Fatalf("String() output %q (from %q) does not re-parse: %v", str, s, err)
		}
		if again.String() != str {
			t.Fatalf("String/Parse not a fixpoint: %q -> %q", str, again.String())
		}
	})
}
