package traffic

import (
	"fmt"
	"sort"
)

// CountsInWindows partitions [0, horizon) into consecutive windows of
// the given width and counts arrivals in each (a trailing partial
// window is dropped). times must be sorted ascending.
func CountsInWindows(times []float64, window, horizon float64) ([]int, error) {
	if !(window > 0) || !(horizon > 0) {
		return nil, fmt.Errorf("traffic: window and horizon must be positive, got %v / %v", window, horizon)
	}
	if !sort.Float64sAreSorted(times) {
		return nil, fmt.Errorf("traffic: arrival times must be sorted")
	}
	n := int(horizon / window)
	if n == 0 {
		return nil, fmt.Errorf("traffic: horizon %v shorter than window %v", horizon, window)
	}
	counts := make([]int, n)
	for _, t := range times {
		k := int(t / window)
		if k >= 0 && k < n {
			counts[k]++
		}
	}
	return counts, nil
}

// IDC returns the index of dispersion for counts at the given window
// width: Var[N(window)] / E[N(window)]. Poisson processes have IDC = 1
// at every width; bursty processes exceed 1, approaching their
// asymptotic value as the window grows past the burst timescale.
func IDC(times []float64, window, horizon float64) (float64, error) {
	counts, err := CountsInWindows(times, window, horizon)
	if err != nil {
		return 0, err
	}
	if len(counts) < 2 {
		return 0, fmt.Errorf("traffic: need at least 2 windows, have %d", len(counts))
	}
	var mean float64
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= float64(len(counts))
	if !(mean > 0) {
		return 0, fmt.Errorf("traffic: no arrivals in the measurement horizon")
	}
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += d * d
	}
	variance := ss / float64(len(counts)-1)
	return variance / mean, nil
}
