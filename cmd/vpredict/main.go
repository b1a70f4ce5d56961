// Command vpredict runs one value predictor configuration over a
// trace (from a VTR1 file or generated from a benchmark) and reports
// its accuracy and size. The -spec flag takes core.ParseSpec's colon
// form, kind:l1[:l2[:width[:delay[:tables[:tag[:hmin[:hmax]]]]]]].
//
// Usage:
//
//	vpredict -bench li -spec dfcm:16:12
//	vpredict -trace li.vtr -spec stride:14
//	vpredict -bench ijpeg -spec dfcm:16:12:8:64
//	vpredict -bench li -spec tage:13:10:32:0:4:8:4:64
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "VTR1 trace file to replay")
	bench := flag.String("bench", "", "benchmark to trace on the fly")
	budget := flag.Uint64("budget", 1_000_000, "instruction budget when tracing a benchmark")
	specFlag := flag.String("spec", "dfcm:16:12", "predictor spec kind:l1[:l2[:width[:delay[:tables[:tag[:hmin[:hmax]]]]]]]; kind is lvp | stride | 2delta | fcm | dfcm | hybrid | tage")
	flag.Parse()

	// The spec grammar is the one cmd/vpserve uses, so an offline run
	// with the same -spec reproduces a served session's hit counts.
	spec, err := core.ParseSpec(*specFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(2)
	}

	tr, err := loadTrace(*traceFile, *bench, *budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(1)
	}

	p, err := spec.New()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(2)
	}

	res := core.Run(p, tr)
	fmt.Printf("predictor:   %s\n", p.Name())
	fmt.Printf("size:        %d bits (%.1f Kbit)\n", p.SizeBits(), float64(p.SizeBits())/1024)
	fmt.Printf("predictions: %d\n", res.Predictions)
	fmt.Printf("correct:     %d\n", res.Correct)
	fmt.Printf("accuracy:    %.4f\n", res.Accuracy())
}

func loadTrace(file, bench string, budget uint64) (trace.Trace, error) {
	switch {
	case file != "" && bench != "":
		return nil, fmt.Errorf("give either -trace or -bench, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadAuto(f)
	case bench != "":
		return progs.TraceFor(bench, budget)
	default:
		return nil, fmt.Errorf("one of -trace or -bench is required")
	}
}
