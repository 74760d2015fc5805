package query

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParsersNeverPanicQuick throws random garbage and mutated valid inputs
// at the parser: it must return errors, never panic, and anything it
// accepts must Validate (templates modulo key).
func TestParsersNeverPanicQuick(t *testing.T) {
	valid := []string{
		"tumbling(1s) average key=3 value>=80",
		"sliding(10s,2s) sum,count key=1",
		"session(30s) median key=2 value<25",
		"tumbling(1000ev) quantile(0.95) key=7",
		"userdefined max key=*",
		"tumbling(1s) average,max key=3 value>=80",
		"sliding(10s,2s) quantile(0.95)",
		"session(30s) median key=*",
	}
	alphabet := " ()*,<>=!0123456789abcdefghijklmnopqrstuvwxyzSELECTFROMWHEREWINDOW.\t"
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		var s string
		switch rng.Intn(3) {
		case 0: // pure noise
			n := rng.Intn(80)
			b := make([]byte, n)
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			s = string(b)
		case 1: // truncated valid input
			v := valid[rng.Intn(len(valid))]
			s = v[:rng.Intn(len(v)+1)]
		case 2: // valid input with random byte edits
			b := []byte(valid[rng.Intn(len(valid))])
			for k := 0; k < 1+rng.Intn(4); k++ {
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
			s = string(b)
		}
		q, err := Parse(s)
		if err != nil {
			return true
		}
		probe := q
		probe.AnyKey = false
		return probe.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestStringParseFixpoint: String() of anything parsed re-parses to the
// same query.
func TestStringParseFixpoint(t *testing.T) {
	inputs := []string{
		"tumbling(1s) average key=3 value>=80",
		"sliding(10s,2s) sum,count key=1",
		"session(30s) median key=2 value<25",
		"tumbling(1000ev) quantile(0.95) key=7",
		"userdefined max key=*",
		"tumbling(5s) geomean,product",
		"sliding(100ev,25ev) min value>=1 value<2",
	}
	for _, in := range inputs {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		again, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", q.String(), in, err)
		}
		if q.String() != again.String() {
			t.Errorf("not a fixpoint: %q -> %q", q.String(), again.String())
		}
	}
}
