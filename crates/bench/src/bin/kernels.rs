//! Microbenchmark of the pluggable compute-kernel layer: every backend on
//! the dense shapes the trainers actually hit, with a bit-identity
//! cross-check on every timed shape, plus a batched small-shape group
//! timing one `gemm_batched` call against its sequential per-product loop.
//!
//! ```text
//! cargo run --release -p st_bench --bin kernels
//! ```
//!
//! Gates enforced at the end (ST_QUICK=1 for a faster sweep, same checks):
//!
//! * `blocked` ≥ 2× `naive` on 256×256 matmul, measured as the best of
//!   several interleaved rounds;
//! * `sharded` bit-identical to `naive` at 1, 2, and 4 worker threads on
//!   every gated shape, and faster than `blocked` on multi-core hosts (the
//!   speed half is skipped, with a note, on single-core containers).

use st_bench::{assert_bits_identical, bench_fill as fill, best_secs, rule};
use st_linalg::{kernel_threads, BlockedKernel, GemmBackend, NaiveKernel, ShardedKernel};

/// One timed operation on one shape across all backends.
enum Op {
    /// `m×k · k×n`.
    Gemm(usize, usize, usize),
    /// `m×k · (n×k)ᵀ` (backprop `dZ·Wᵀ`).
    GemmNt(usize, usize, usize),
    /// `(m×k)ᵀ · m×n` (gradient `Xᵀ·dZ`).
    GemmTn(usize, usize, usize),
    /// `rows×cols · v`.
    Matvec(usize, usize),
}

impl Op {
    fn label(&self) -> String {
        match *self {
            Op::Gemm(m, k, n) if m == k && k == n => format!("matmul {m}x{n}"),
            Op::Gemm(m, k, n) => format!("gemm {m}x{k}x{n}"),
            Op::GemmNt(m, k, n) => format!("gemm_nt {m}x{k}x{n}"),
            Op::GemmTn(m, k, n) => format!("gemm_tn {m}x{k}x{n}"),
            Op::Matvec(r, c) => format!("matvec {r}x{c}"),
        }
    }

    fn flops(&self) -> f64 {
        match *self {
            Op::Gemm(m, k, n) | Op::GemmNt(m, k, n) | Op::GemmTn(m, k, n) => {
                2.0 * (m * k * n) as f64
            }
            Op::Matvec(r, c) => 2.0 * (r * c) as f64,
        }
    }

    /// Runs the op with `backend` once, returning the output buffer.
    fn run(&self, backend: &dyn GemmBackend, seed: u64, out: &mut Vec<f64>) {
        match *self {
            Op::Gemm(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(k * n, seed ^ 1);
                out.clear();
                out.resize(m * n, 0.0);
                backend.gemm(m, k, n, &a, &b, out);
            }
            Op::GemmNt(m, k, n) => {
                let a = fill(m * k, seed);
                let bt = fill(n * k, seed ^ 2);
                out.clear();
                out.resize(m * n, 0.0);
                backend.gemm_nt(m, k, n, &a, &bt, out);
            }
            Op::GemmTn(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(m * n, seed ^ 3);
                out.clear();
                out.resize(k * n, 0.0);
                backend.gemm_tn(m, k, n, &a, &b, out);
            }
            Op::Matvec(r, c) => {
                let a = fill(r * c, seed);
                let v = fill(c, seed ^ 4);
                out.clear();
                out.resize(r, 0.0);
                backend.matvec(r, c, &a, &v, out);
            }
        }
    }

    /// Times the op's core loop (inputs pre-built, output zeroed per rep).
    fn time(&self, backend: &dyn GemmBackend, seed: u64, reps: usize) -> f64 {
        match *self {
            Op::Gemm(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(k * n, seed ^ 1);
                let mut out = vec![0.0; m * n];
                best_secs(reps, || {
                    out.fill(0.0);
                    backend.gemm(m, k, n, &a, &b, &mut out);
                })
            }
            Op::GemmNt(m, k, n) => {
                let a = fill(m * k, seed);
                let bt = fill(n * k, seed ^ 2);
                let mut out = vec![0.0; m * n];
                best_secs(reps, || {
                    out.fill(0.0);
                    backend.gemm_nt(m, k, n, &a, &bt, &mut out);
                })
            }
            Op::GemmTn(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(m * n, seed ^ 3);
                let mut out = vec![0.0; k * n];
                best_secs(reps, || {
                    out.fill(0.0);
                    backend.gemm_tn(m, k, n, &a, &b, &mut out);
                })
            }
            Op::Matvec(r, c) => {
                let a = fill(r * c, seed);
                let v = fill(c, seed ^ 4);
                let mut out = vec![0.0; r];
                best_secs(reps, || {
                    backend.matvec(r, c, &a, &v, &mut out);
                })
            }
        }
    }
}

fn main() {
    let quick = std::env::var("ST_QUICK").is_ok();
    let reps = if quick { 3 } else { 7 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let sharded = ShardedKernel::new();
    let backends: [&dyn GemmBackend; 3] = [&NaiveKernel, &BlockedKernel, &sharded];

    println!("Compute-kernel microbench — all backends (best of {reps})");
    println!(
        "host: {cores} core(s), kernel thread budget {}; active process kernel: {} \
         (every backend timed explicitly below)",
        kernel_threads(),
        st_linalg::kernel_kind().name()
    );
    #[cfg(target_arch = "x86_64")]
    println!(
        "vector units: avx2={} avx512f={}\n",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f")
    );

    // The shape tour: square matmuls, the three trainer GEMM shapes, and
    // the solver/metric matvec, per the bench-gate checklist.
    let shapes = [
        Op::Gemm(64, 64, 64),
        Op::Gemm(128, 128, 128),
        Op::Gemm(256, 256, 256),
        Op::Gemm(512, 784, 64),
        Op::GemmTn(512, 784, 64),
        Op::GemmNt(512, 64, 784),
        Op::Matvec(2048, 512),
    ];

    println!(
        "{:<20} {:>10} {:>10} {:>10}   (ms, GF/s below)",
        "op", "naive", "blocked", "sharded"
    );
    rule(66);
    for (si, op) in shapes.iter().enumerate() {
        let seed = 0xC0FFEE + si as u64;
        // Correctness first: every backend must be bit-identical to naive.
        let mut reference = Vec::new();
        op.run(&NaiveKernel, seed, &mut reference);
        let mut got = Vec::new();
        for backend in backends.iter().skip(1) {
            op.run(*backend, seed, &mut got);
            let label = format!("{} [{}]", op.label(), backend.name());
            assert_bits_identical(&label, &reference, &got);
        }

        let times: Vec<f64> = backends.iter().map(|b| op.time(*b, seed, reps)).collect();
        print!("{:<20}", op.label());
        for t in &times {
            print!(" {:>9.3}m", t * 1e3);
        }
        println!();
        print!("{:<20}", "");
        for t in &times {
            print!(" {:>10.2}", op.flops() / t / 1e9);
        }
        println!();
    }

    // ---- Batched small-shape group ---------------------------------------
    //
    // 32 independent 64×32×16 products — estimation-plane minibatch scale,
    // where per-call pack/dispatch overhead rivals the arithmetic. Two
    // variants: every product with its own `B` (the lockstep-training
    // shape), and all products sharing one `B` (the shared-weights shape).
    // `B` has 512 elements, so `blocked` runs every product on its small
    // core and packs nothing: parity is the honest expectation for both.
    // Bit-identity of each one-call form against the backend's own
    // sequential loop is asserted before timing.
    let (bm, bk, bn, bbatch) = (64, 32, 16, 32);
    let bas: Vec<Vec<f64>> = (0..bbatch)
        .map(|i| fill(bm * bk, 0xBA7 + i as u64))
        .collect();
    let bbs: Vec<Vec<f64>> = (0..bbatch)
        .map(|i| fill(bk * bn, 0x7AB + i as u64))
        .collect();
    let ba_refs: Vec<&[f64]> = bas.iter().map(Vec::as_slice).collect();
    let bb_refs: Vec<&[f64]> = bbs.iter().map(Vec::as_slice).collect();
    println!("\nbatched group: {bbatch}x gemm {bm}x{bk}x{bn}, one call vs sequential loop (GF/s)");
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>11} {:>9} {:>8}",
        "backend", "looped", "batched", "ratio", "loop(shB)", "bat(shB)", "ratio"
    );
    rule(70);
    let bflops = 2.0 * (bbatch * bm * bk * bn) as f64;
    // The whole group is a few hundred µs per call, so reading through
    // scheduler noise takes more rounds than the big shapes need.
    let brounds = if quick { 10 } else { 15 };
    let mut batched_speedups: Vec<(&str, f64, f64)> = Vec::new();
    for backend in backends {
        // Reference: the sequential per-product loop, both variants.
        let mut looped = vec![vec![0.0; bm * bn]; bbatch];
        for (i, out) in looped.iter_mut().enumerate() {
            backend.gemm(bm, bk, bn, ba_refs[i], bb_refs[i], out);
        }
        let mut looped_shared = vec![vec![0.0; bm * bn]; bbatch];
        for (i, out) in looped_shared.iter_mut().enumerate() {
            backend.gemm(bm, bk, bn, ba_refs[i], bb_refs[0], out);
        }
        let mut outs_buf = vec![vec![0.0; bm * bn]; bbatch];
        {
            let mut outs: Vec<&mut [f64]> = outs_buf.iter_mut().map(Vec::as_mut_slice).collect();
            backend.gemm_batched(bm, bk, bn, &ba_refs, &bb_refs, &mut outs);
        }
        for (i, (want, got)) in looped.iter().zip(&outs_buf).enumerate() {
            assert_bits_identical(
                &format!("batched gemm product {i} [{}]", backend.name()),
                want,
                got,
            );
        }
        {
            let mut outs: Vec<&mut [f64]> = outs_buf.iter_mut().map(Vec::as_mut_slice).collect();
            for out in outs.iter_mut() {
                out.fill(0.0);
            }
            backend.gemm_batched(bm, bk, bn, &ba_refs, &bb_refs[..1], &mut outs);
        }
        for (i, (want, got)) in looped_shared.iter().zip(&outs_buf).enumerate() {
            assert_bits_identical(
                &format!("batched shared-B gemm product {i} [{}]", backend.name()),
                want,
                got,
            );
        }

        // Interleaved rounds, like the gates: contender order rotates
        // within each round, so clock drift and scheduler noise land on
        // every contender instead of whichever happens to be timed last.
        let mut outs: Vec<&mut [f64]> = outs_buf.iter_mut().map(Vec::as_mut_slice).collect();
        let (mut t_loop, mut t_loop_shared, mut t_batch, mut t_batch_shared) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..brounds {
            t_loop = t_loop.min(best_secs(reps, || {
                for (i, out) in looped.iter_mut().enumerate() {
                    out.fill(0.0);
                    backend.gemm(bm, bk, bn, ba_refs[i], bb_refs[i], out);
                }
            }));
            t_batch = t_batch.min(best_secs(reps, || {
                for out in outs.iter_mut() {
                    out.fill(0.0);
                }
                backend.gemm_batched(bm, bk, bn, &ba_refs, &bb_refs, &mut outs);
            }));
            t_loop_shared = t_loop_shared.min(best_secs(reps, || {
                for (i, out) in looped_shared.iter_mut().enumerate() {
                    out.fill(0.0);
                    backend.gemm(bm, bk, bn, ba_refs[i], bb_refs[0], out);
                }
            }));
            t_batch_shared = t_batch_shared.min(best_secs(reps, || {
                for out in outs.iter_mut() {
                    out.fill(0.0);
                }
                backend.gemm_batched(bm, bk, bn, &ba_refs, &bb_refs[..1], &mut outs);
            }));
        }
        let (r, rs) = (t_loop / t_batch, t_loop_shared / t_batch_shared);
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>7.2}x {:>11.2} {:>9.2} {:>7.2}x",
            backend.name(),
            bflops / t_loop / 1e9,
            bflops / t_batch / 1e9,
            r,
            bflops / t_loop_shared / 1e9,
            bflops / t_batch_shared / 1e9,
            rs
        );
        batched_speedups.push((backend.name(), r, rs));
    }

    // ---- Gates -----------------------------------------------------------
    println!("\ngates:");
    let gate_rounds = if quick { 3 } else { 5 };

    // Gate 1: blocked vs naive on 256x256, measured as the best of several
    // interleaved rounds (round-robin timing keeps scheduler noise from
    // landing on one contender only).
    let (m, k, n) = (256, 256, 256);
    let a = fill(m * k, 0xA256);
    let b = fill(k * n, 0xB256);
    let mut out = vec![0.0; m * n];
    let (mut t_naive, mut t_blocked) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..gate_rounds {
        t_naive = t_naive.min(best_secs(reps, || {
            out.fill(0.0);
            NaiveKernel.gemm(m, k, n, &a, &b, &mut out);
        }));
        t_blocked = t_blocked.min(best_secs(reps, || {
            out.fill(0.0);
            BlockedKernel.gemm(m, k, n, &a, &b, &mut out);
        }));
    }
    let blocked_speedup = t_naive / t_blocked;
    println!("  blocked vs naive on 256x256: {blocked_speedup:.2}x (target >= 2x)");
    assert!(
        blocked_speedup >= 2.0,
        "blocked kernel must be >= 2x naive on 256x256 matmul, got {blocked_speedup:.2}x"
    );

    // Gate 2: sharded bit-identity at 1, 2, and 4 worker threads on the
    // heavy shapes (big enough to cross the fan-out threshold), plus the
    // multi-core speed half where cores exist.
    let (gm, gk, gn) = (512, 512, 512);
    let ga = fill(gm * gk, 0xA512);
    let gb = fill(gk * gn, 0xB512);
    let mut want = vec![0.0; gm * gn];
    NaiveKernel.gemm(gm, gk, gn, &ga, &gb, &mut want);
    let mut tn_want = vec![0.0; gk * gn];
    NaiveKernel.gemm_tn(gm, gk, gn, &ga, &gb, &mut tn_want);
    for threads in [1, 2, 4] {
        let kernel = ShardedKernel::with_threads(threads);
        let mut got = vec![0.0; gm * gn];
        kernel.gemm(gm, gk, gn, &ga, &gb, &mut got);
        assert_bits_identical(&format!("sharded({threads}) gemm 512"), &want, &got);
        let mut tn_got = vec![0.0; gk * gn];
        kernel.gemm_tn(gm, gk, gn, &ga, &gb, &mut tn_got);
        assert_bits_identical(
            &format!("sharded({threads}) gemm_tn 512"),
            &tn_want,
            &tn_got,
        );
    }
    println!("  sharded bit-identical to naive at 1/2/4 threads on 512x512 gemm + gemm_tn");

    let mut shard_speedup = None;
    if cores >= 2 {
        // Interleaved rounds like gate 1, and a gate band below the
        // >1x target: on 2-"core" hosts whose vCPUs are hyperthread
        // siblings, the second shard adds little FP throughput while
        // spawn/sync overhead is real, so near-parity is legitimate
        // there; with ≥4 cores real parallelism must show.
        let mut gout = vec![0.0; gm * gn];
        let (mut t_blocked_big, mut t_shard_big) = (f64::INFINITY, f64::INFINITY);
        let shard_all = ShardedKernel::with_threads(cores);
        for _ in 0..gate_rounds {
            t_blocked_big = t_blocked_big.min(best_secs(reps, || {
                gout.fill(0.0);
                BlockedKernel.gemm(gm, gk, gn, &ga, &gb, &mut gout);
            }));
            t_shard_big = t_shard_big.min(best_secs(reps, || {
                gout.fill(0.0);
                shard_all.gemm(gm, gk, gn, &ga, &gb, &mut gout);
            }));
        }
        let speedup = t_blocked_big / t_shard_big;
        shard_speedup = Some(speedup);
        let floor = if cores >= 4 { 1.2 } else { 0.9 };
        println!(
            "  sharded({cores}) vs blocked on 512x512: {speedup:.2}x (target > 1x on \
             multi-core hosts; gate >= {floor}x for {cores} cores)"
        );
        assert!(
            speedup >= floor,
            "sharded must reach {floor}x over blocked on a {cores}-core host, \
             got {speedup:.2}x"
        );
    } else {
        println!(
            "  sharded vs blocked speed gate skipped: single-core host (bit gate above still \
             enforced; the fan-out shows up on multi-core machines)"
        );
    }

    // Machine-readable gate readings for the trend reporter
    // (`st_bench --bin trend`; schema in docs/profiling.md). `ST_KERNELS_JSON`
    // overrides the path.
    let path =
        std::env::var("ST_KERNELS_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let mut json = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    let _ = writeln!(json, "  \"schema_version\": 3,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"blocked_speedup\": {blocked_speedup:.4},");
    match shard_speedup {
        Some(s) => {
            let _ = writeln!(json, "  \"sharded_speedup\": {s:.4},");
        }
        None => {
            let _ = writeln!(json, "  \"sharded_speedup\": null,");
        }
    }
    let _ = writeln!(json, "  \"batched_group\": {{");
    let _ = writeln!(json, "    \"shape\": \"{bm}x{bk}x{bn}\",");
    let _ = writeln!(json, "    \"batch\": {bbatch},");
    let _ = writeln!(json, "    \"speedups\": {{");
    for (i, (name, s, _)) in batched_speedups.iter().enumerate() {
        let comma = if i + 1 < batched_speedups.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "      \"{name}\": {s:.4}{comma}");
    }
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"shared_b_speedups\": {{");
    for (i, (name, _, s)) in batched_speedups.iter().enumerate() {
        let comma = if i + 1 < batched_speedups.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "      \"{name}\": {s:.4}{comma}");
    }
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");

    println!("\nall gates passed; every backend bit-identical on every timed shape");
}
