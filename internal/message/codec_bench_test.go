package message

import (
	"math/rand"
	"slices"
	"testing"

	"desis/internal/core"
	"desis/internal/operator"
)

// interLinkBatch is a batch shaped like what a throttled intermediate ships
// to the root: 69 partials of 16 groups that slice alike (slice ids and
// bounds shared across groups, groups interleaved), each one count, sum and
// sorted-run agg of 8–16 quarter values, Ingested equal to the count.
func interLinkBatch() *Batch {
	rng := rand.New(rand.NewSource(1))
	b := &Batch{}
	for i := 0; i < 69; i++ {
		slice := int64(i / 16)
		a := operator.NewAgg(operator.OpCount | operator.OpSum | operator.OpNDSort)
		for e := 8 + rng.Intn(9); e > 0; e-- {
			a.Add(float64(rng.Intn(400)) / 4)
		}
		a.Finish()
		slices.Sort(a.Values)
		b.Frames = append(b.Frames, &Message{Kind: KindPartial, From: 1, Partial: &core.SlicePartial{
			Group: uint32(i % 16), ID: uint64(100 + slice),
			Start: 1_000_000 + 100*slice, End: 1_000_100 + 100*slice,
			Ingested: a.CountV, Aggs: []operator.Agg{a},
		}})
	}
	return b
}

// benchEncode times Binary.Append of m, reporting ns and wire bytes per
// partial of the n it carries.
func benchEncode(b *testing.B, m *Message, n int) {
	buf, err := Binary{}.Append(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = (Binary{}).Append(buf[:0], m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/partial")
	b.ReportMetric(float64(len(buf))/float64(n), "B/partial")
}

// benchDecode times Binary.DecodeInto of m's encoding into one reused
// message, giving the decoded partials back to the pool as a receiver does.
func benchDecode(b *testing.B, m *Message, n int) {
	buf, err := Binary{}.Append(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	var got Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (Binary{}).DecodeInto(buf, &got); err != nil {
			b.Fatal(err)
		}
		if got.Batch != nil {
			for _, f := range got.Batch.Frames {
				if f.Partial != nil {
					ReleasePartial(f.Partial)
				}
			}
		} else {
			ReleasePartial(got.Partial)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/partial")
}

func BenchmarkBatchEncode(b *testing.B) {
	batch := interLinkBatch()
	benchEncode(b, &Message{Kind: KindBatch, From: 1, Batch: batch}, len(batch.Frames))
}

func BenchmarkBatchDecode(b *testing.B) {
	batch := interLinkBatch()
	benchDecode(b, &Message{Kind: KindBatch, From: 1, Batch: batch}, len(batch.Frames))
}

// BenchmarkPartialEncode and BenchmarkPartialDecode are the single-partial
// pair: one of the batch's partials as its own fixed-width KindPartial frame.
func BenchmarkPartialEncode(b *testing.B) {
	benchEncode(b, interLinkBatch().Frames[0], 1)
}

func BenchmarkPartialDecode(b *testing.B) {
	benchDecode(b, interLinkBatch().Frames[0], 1)
}
