package bitset

import (
	"math/rand"
	"testing"
)

// spanSet builds a set over spans [0, spans) whose every container has the
// given encoding: ctBitmap draws 20000 keys per span (dense enough to stay
// a bitmap), ctArray draws 1500 (sparse enough to stay an array).
func spanSet(t *testing.T, rng *rand.Rand, spans int, enc ctype) (*Set, refSet) {
	t.Helper()
	s, ref := New(), refSet{}
	per := 1500
	if enc == ctBitmap {
		per = 20000
	}
	for sp := 0; sp < spans; sp++ {
		for n := 0; n < per; n++ {
			v := sp*containerSpan + rng.Intn(containerSpan)
			s.Add(v)
			ref[v] = true
		}
	}
	for i := range s.cs {
		if s.cs[i].typ != enc {
			t.Fatalf("spanSet: container %d has encoding %d, want %d", i, s.cs[i].typ, enc)
		}
	}
	return s, ref
}

// TestAndIntoMultiSpanZeroAllocs: a warm scratch set intersects 2- and
// 3-span operands in place — bitmap∩bitmap, array∩bitmap and array∩array,
// and a chained step off the first result (the PEPS DFS shape) — with zero
// allocations, and every result matches the oracle.
func TestAndIntoMultiSpanZeroAllocs(t *testing.T) {
	for _, spans := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(spans)))
		max := spans * containerSpan
		b1, r1 := spanSet(t, rng, spans, ctBitmap)
		b2, r2 := spanSet(t, rng, spans, ctBitmap)
		a1, r3 := spanSet(t, rng, spans, ctArray)
		a2, r4 := spanSet(t, rng, spans, ctArray)
		cases := []struct {
			name string
			a, b *Set
			want refSet
		}{
			{"bitmap∩bitmap", b1, b2, refAnd(r1, r2)},
			{"array∩bitmap", a1, b1, refAnd(r3, r1)},
			{"bitmap∩array", b2, a1, refAnd(r2, r3)},
			{"array∩array", a1, a2, refAnd(r3, r4)},
		}
		for _, c := range cases {
			seed, child := New(), New()
			step := func() {
				seed.AndInto(c.a, c.b)
				child.AndInto(seed, b1)
			}
			step() // warm: size every slot's buffer
			if got := testing.AllocsPerRun(50, step); got != 0 {
				t.Errorf("%d spans %s: %.1f allocs per warm AndInto pair, want 0", spans, c.name, got)
			}
			checkEqual(t, c.name, seed, c.want, max)
			checkEqual(t, c.name+" chained", child, refAnd(c.want, r1), max)
		}
		checkEqual(t, "lhs intact", b1, r1, max)
		checkEqual(t, "rhs intact", b2, r2, max)
	}
}

// TestAndIntoNeverWritesThroughCow: a scratch set whose slots hold
// copy-on-write payloads — a Clone's containers, or an operand's payload
// handed back by the full-run short-circuit — must allocate rather than
// write into the shared buffer. A scratch built by point mutation (Remove
// emptying a middle container) must not carry a spare slot aliasing a live
// payload either.
func TestAndIntoNeverWritesThroughCow(t *testing.T) {
	const spans = 3
	const max = spans * containerSpan
	rng := rand.New(rand.NewSource(5))
	x, rx := spanSet(t, rng, spans, ctBitmap)
	y, ry := spanSet(t, rng, spans, ctBitmap)
	z, rz := spanSet(t, rng, spans, ctBitmap)
	want := refAnd(ry, rz)

	// Reuse after Clone: c shares x's bitmaps cow.
	c := x.Clone()
	c.AndInto(y, z)
	checkEqual(t, "clone scratch", c, want, max)
	checkEqual(t, "clone origin", x, rx, max)

	// Reuse after a full-run short-circuit: s's slots alias x's payloads.
	full := New()
	full.AddRange(0, max)
	s := New()
	s.AndInto(x, full)
	checkEqual(t, "full-run result", s, rx, max)
	s.AndInto(y, z)
	checkEqual(t, "reused scratch", s, want, max)
	checkEqual(t, "short-circuited operand", x, rx, max)

	// A Remove that drops the middle container leaves no aliased spare.
	m, rm := spanSet(t, rng, spans, ctBitmap)
	for v := range rm {
		if v>>16 == 1 {
			m.Remove(v)
		}
	}
	m.AndInto(y, z)
	checkEqual(t, "mutated scratch", m, want, max)
}
