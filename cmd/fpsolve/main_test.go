package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckTimes(t *testing.T) {
	for _, tc := range []struct {
		horizon, every float64
		bad            string // the flag named in the error, or "" when accepted
	}{
		{50, 1, ""},
		{0.5, 0.25, ""},
		{50, 0, "-every"},
		{50, -1, "-every"},
		{50, math.NaN(), "-every"},
		{50, math.Inf(1), "-every"},
		{-5, 1, "-t"},
		{0, 1, "-t"},
		{math.NaN(), 1, "-t"},
		{math.Inf(1), 1, "-t"},
	} {
		err := checkTimes(tc.horizon, tc.every)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("-t %v -every %v: %v", tc.horizon, tc.every, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ")):
			t.Errorf("-t %v -every %v: error %v, want one naming %s", tc.horizon, tc.every, err, tc.bad)
		}
	}
}
