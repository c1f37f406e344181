// webautoscale reproduces the paper's web (Wikipedia) scenario in a
// CI-friendly reduction — scale 0.1, one simulated day — and shows how the
// adaptive mechanism rides the diurnal load curve while static fleets
// either reject requests or idle.
package main

import (
	"flag"
	"fmt"
	"math"

	"vmprov"
)

func main() {
	scale := flag.Float64("scale", 0.1, "load scale (1 = the paper's ≈500M requests/week)")
	days := flag.Float64("days", 1, "simulated days")
	flag.Parse()

	sc := vmprov.Web(*scale)
	sc.Horizon = *days * vmprov.Day

	// The paper's 150- and 100-instance baselines, scaled like the load.
	peakM := max(int(math.Round(150*sc.Scale)), 1)
	smallM := max(int(math.Round(100*sc.Scale)), 1)
	adaptive, series := vmprov.RunOnce(sc, vmprov.Adaptive(), 7, vmprov.RunOptions{TrackSeries: true})
	peak, _ := vmprov.RunOnce(sc, vmprov.Static(peakM), 7, vmprov.RunOptions{})
	small, _ := vmprov.RunOnce(sc, vmprov.Static(smallM), 7, vmprov.RunOptions{})

	fmt.Print(vmprov.FigureTable(
		fmt.Sprintf("web scenario, scale %g, %g day(s) — paper Figure 5 analogue", *scale, *days),
		[]vmprov.Result{adaptive, small, peak}))

	// The series holds one point per fleet change; print the size in
	// effect at each whole hour.
	fmt.Println("\nadaptive fleet size over the day (hourly):")
	n, i := 0, 0
	for h := 0.0; h <= sc.Horizon; h += 3600 {
		for ; i < len(series) && series[i].T <= h; i++ {
			n = series[i].N
		}
		fmt.Printf("  %5.1f h: %s\n", h/3600, bar(n))
	}
}

// bar renders a small ASCII bar for n instances.
func bar(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return fmt.Sprintf("%3d %s", n, b)
}
