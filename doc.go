// Package fedml is a Go reproduction of "Real-Time Edge Intelligence in the
// Making: A Collaborative Learning Framework via Federated Meta-Learning"
// (Lin, Yang, Zhang — ICDCS 2020).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory) and is exercised through:
//
//   - cmd/fedml — train a federated meta-model in-process or across real
//     TCP processes, then fast-adapt it at held-out target nodes;
//   - cmd/fedml-bench — regenerate every table and figure of the paper's
//     evaluation section;
//   - examples/edgeiot — Theorem 2's bounds next to the T0 trade-off;
//   - bench_test.go — testing.B entry points, one per table/figure plus
//     ablations of the design choices called out in DESIGN.md §5.
package fedml

// Version identifies the reproduction release.
const Version = "1.0.0"
