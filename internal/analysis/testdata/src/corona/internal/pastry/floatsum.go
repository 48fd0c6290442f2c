// Fixture: float addition rounds, so a float sum taken in map order
// differs in its last bits between identically-seeded runs; an integer
// sum is exact in any order.
package pastry

type meter struct{ total float64 }

func meanWeight(w map[ID]float64) float64 {
	var sum float64
	for _, x := range w {
		sum += x // want "floating-point sum \\+= inside range over map w"
	}
	return sum / float64(len(w))
}

func (m *meter) drain(w map[ID]float64) {
	for _, x := range w {
		m.total -= x // want "floating-point m.total -= inside range over map w"
	}
}

func totalHits(hits map[ID]int) int {
	n := 0
	for _, h := range hits {
		n += h
	}
	return n
}
