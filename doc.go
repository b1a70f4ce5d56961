// Package repro is a from-scratch Go reproduction of "Differential
// FCM: Increasing Value Prediction Accuracy by Improving Table Usage
// Efficiency" (Goeman, Vandierendonck, De Bosschere, HPCA 2001).
//
// The library implements the paper's differential finite context
// method value predictor together with every substrate its evaluation
// depends on: the classical predictors it is compared against
// (last-value, stride, two-delta, FCM, hybrids), the Sazeides FS R-k
// history hashes, an MR32 RISC ISA with assembler and functional
// simulator standing in for SimpleScalar/MIPS, a SPECint95-like
// benchmark suite, the aliasing-classification instrumentation of the
// paper's section 4.2, and a harness regenerating every table and
// figure of the evaluation.
//
// Start with README.md, DESIGN.md (system inventory and
// per-experiment index) and EXPERIMENTS.md (paper-vs-measured
// results). The CLI regenerates every artifact with a configurable
// budget:
//
//	go run ./cmd/dfcmsim all -budget 5000000
package repro
