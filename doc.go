// Package robustscale is a Go implementation of robust predictive
// auto-scaling with probabilistic workload forecasting for cloud
// databases, reproducing Hang et al. (ICDE 2024).
//
// The library has two phases, mirroring the paper's Figure 2:
//
//   - A Probabilistic Workload Forecaster predicts quantiles of future
//     workload instead of single values. Two methodologies are provided:
//     learning parametric distributions (DeepAR with a Student-t head, an
//     MLP with a Gaussian head) and learning a pre-specified grid of
//     quantiles (a Temporal Fusion Transformer trained on pinball loss).
//     ARIMA and the QueryBot 5000 hybrid round out the baselines.
//
//   - A Robust Auto-Scaling Manager formulates horizontal scaling as a
//     robust optimization problem: minimize total compute nodes subject to
//     per-step workload thresholds evaluated at a chosen quantile level
//     (Equation 6), or adaptively switch between quantile levels based on
//     the forecast's own uncertainty (Algorithm 1).
//
// A quick end-to-end tour (Example_quickstart runs it in full):
//
//	tr, _ := robustscale.GenerateAlibabaTrace(42)
//	cpu, _ := tr.Series(robustscale.CPU)
//	tft := robustscale.NewTFT(robustscale.DefaultTFTConfig())
//	_ = tft.Fit(cpu.Slice(0, cpu.Len()*7/10))
//
//	start := cpu.Len() * 8 / 10
//	res, _ := robustscale.EvaluateStrategy(
//		&robustscale.Robust{Forecaster: tft, Tau: 0.9, Theta: 70},
//		cpu, robustscale.EvalConfig{Theta: 70, Horizon: 72, Start: start})
//	fmt.Printf("under-provisioning: %.2f%%\n", 100*res.Report.UnderProvisionRate)
//
//	evaluated := cpu.Slice(start, start+len(res.Allocations))
//	c, _ := robustscale.NewCluster(robustscale.DefaultClusterConfig(), evaluated.Start, res.Allocations[0])
//	replay, _ := c.Replay(evaluated, res.Allocations, 70)
//	fmt.Printf("threshold violations with warm-up: %.2f%%\n", 100*replay.ViolationRate)
//
// Everything is implemented with the Go standard library only; workload
// traces are generated synthetically in the statistical image of the
// Alibaba and Google cluster traces the paper evaluates on.
package robustscale
