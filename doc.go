// Package pipm is a from-scratch reproduction of "PIPM: Partial and
// Incremental Page Migration for Multi-host CXL Disaggregated Shared
// Memory" (Huang, Litz, Xu — ASPLOS 2026).
//
// PIPM keeps shared pages logically in the CXL memory pool but lets each
// host absorb the cache blocks it actually uses into its local DRAM:
// migration decisions come from a Boyer–Moore-style majority vote over page
// accesses, data movement piggybacks on ordinary cache fills and evictions
// ("incremental"), and coherence is preserved by two new states (ME and I')
// plus a one-bit in-memory state per cache block, layered on the multi-host
// MESI directory protocol.
//
// The package exposes four layers:
//
//   - A deterministic multi-host CXL-DSM architectural simulator
//     (NewMachine): out-of-order-window cores, private L1Ds, shared LLCs,
//     bank-aware DDR5 timing, bandwidth-queued CXL links, and the device
//     coherence directory.
//   - Eight page-placement schemes (Scheme): the Native baseline, four
//     kernel-based policies (Nomad, Memtis, HeMem, OS-skew), the HW-static
//     ablation, full PIPM, and the Local-only upper bound.
//   - Synthetic workload models (Workloads) standing in for the paper's
//     thirteen Pin-traced benchmarks.
//   - An experiment harness (NewSuite) that regenerates every table and
//     figure of the paper's evaluation, plus a Murφ-style model checker
//     (VerifyCoherence: one cache line, 2–4 hosts; cmd/conformance runs
//     the same checker on two lines of one page) for the PIPM protocol
//     itself.
//
// Quick start:
//
//	cfg := pipm.DefaultConfig()
//	wl, _ := pipm.WorkloadByName("pr")
//	res, _ := pipm.Run(cfg, wl, pipm.PIPM, 100_000, 1)
//	fmt.Printf("IPC %.2f, local hit rate %.0f%%\n", res.IPC, 100*res.LocalHitRate)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// versus published numbers.
package pipm
