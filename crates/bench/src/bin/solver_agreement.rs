//! Ablation: do the three convex solvers find the same optimum?
//!
//! The paper uses "any off-the-shelf convex optimization solver". This repo
//! carries three of independent lineage (projected subgradient, log-barrier
//! interior point, and the λ=0 closed-form KKT water filling); this bin
//! sweeps random problem instances and reports the worst relative objective
//! gaps, which is the strongest correctness evidence available for an
//! optimizer without a reference implementation.

use st_curve::PowerLaw;
use st_linalg::SplitMix64;
use st_optim::{
    solve_barrier, solve_kkt, solve_projected, AcquisitionProblem, BarrierOptions, SolverOptions,
};

fn random_problem(rng: &mut SplitMix64, n: usize, lambda: f64) -> AcquisitionProblem {
    let curves: Vec<PowerLaw> = (0..n)
        .map(|_| PowerLaw::new(0.5 + 4.0 * rng.next_f64(), 0.05 + 0.8 * rng.next_f64()))
        .collect();
    let sizes: Vec<f64> = (0..n).map(|_| 30.0 + 400.0 * rng.next_f64()).collect();
    let costs: Vec<f64> = (0..n).map(|_| 0.5 + 2.0 * rng.next_f64()).collect();
    let budget = 100.0 * n as f64 * (0.5 + rng.next_f64());
    AcquisitionProblem::new(curves, sizes, costs, budget, lambda)
}

fn main() {
    // Bench-wide kernel default: `sharded` on multi-core hosts, `blocked`
    // on single-core containers; `ST_KERNEL` overrides (see docs/kernels.md).
    st_bench::init_bench_kernel();
    let instances = 50;
    println!("Solver agreement over {instances} random instances per cell\n");
    println!(
        "{:<8} {:<8} {:>22} {:>22}",
        "n", "lambda", "max rel gap proj/bar", "max rel gap kkt/bar"
    );
    println!("{}", "-".repeat(64));

    let mut rng = SplitMix64::new(2021);
    for &n in &[4usize, 10, 20] {
        for &lambda in &[0.0, 0.1, 1.0, 10.0] {
            let mut worst_pb = 0.0f64;
            let mut worst_kb = 0.0f64;
            for _ in 0..instances {
                let p = random_problem(&mut rng, n, lambda);
                let d_proj = solve_projected(&p, &SolverOptions::default());
                let d_bar = solve_barrier(&p, &BarrierOptions::default());
                let fb = p.objective(&d_bar);
                let fp = p.objective(&d_proj);
                worst_pb = worst_pb.max((fp - fb).abs() / fb.abs().max(1e-9));
                if lambda == 0.0 {
                    let d_kkt = solve_kkt(&p);
                    let fk = p.objective(&d_kkt);
                    worst_kb = worst_kb.max((fk - fb).abs() / fb.abs().max(1e-9));
                }
            }
            let kb = if lambda == 0.0 {
                format!("{worst_kb:.2e}")
            } else {
                "n/a".into()
            };
            println!("{:<8} {:<8} {:>22.2e} {:>22}", n, lambda, worst_pb, kb);
        }
    }
    println!("\n(expected shape: all gaps ≲ 1e-3 — three independent solvers agree on");
    println!(" the optimum, so any of them is a faithful 'off-the-shelf solver' stand-in)");
}
