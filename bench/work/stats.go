package work

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs need not be sorted and is not
// modified. It returns NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }
