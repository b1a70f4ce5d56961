// Trace pipeline: write your own MR32 assembly program, run it on the
// functional simulator, serialize the value trace to a file, read it
// back and evaluate predictors on it — the full substrate end to end.
//
//	go run ./examples/tracefile
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
)

// A custom micro-benchmark: a triangular-number loop (pure strides)
// feeding a small modular hash (context patterns).
const program = `
	.data
table:	.space 64
	.text
main:
	li   $s1, 0              # i
	li   $s2, 0              # triangular sum
loop:
	addiu $s1, $s1, 1
	addu  $s2, $s2, $s1      # sum += i
	# hash the sum into a 16-entry table and read it back
	andi  $t0, $s2, 15
	sll   $t0, $t0, 2
	lw    $t1, table($t0)
	addu  $t1, $t1, $s2
	sw    $t1, table($t0)
	li    $t2, 50000
	bne   $s1, $t2, loop
	li    $v0, 10
	syscall
`

func main() {
	prog, err := asm.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}

	// Run to completion, collecting the value trace.
	tr, err := vm.Trace(prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated program produced %d trace events\n", len(tr))

	// Serialize and reload (normally via a file; a buffer here).
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VTR1 encoding: %.2f bytes/event\n", float64(buf.Len())/float64(len(tr)))
	reloaded, err := trace.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate predictors on the reloaded trace.
	for _, p := range []core.Predictor{
		core.NewLastValue(8),
		core.NewStride(8),
		core.NewFCM(8, 12),
		core.NewDFCM(8, 12),
	} {
		res := core.Run(p, reloaded)
		fmt.Printf("%-14s accuracy %.4f (%d/%d)\n",
			p.Name(), res.Accuracy(), res.Correct, res.Predictions)
	}
}
