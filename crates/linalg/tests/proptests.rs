//! Property-based tests for the linear algebra kernels.

use proptest::prelude::*;
use st_linalg::{
    cholesky_solve, dot, gaussian_solve, l2_norm, log_sum_exp, mean, quantile, sigmoid,
    softmax_in_place, sub, variance, BlockedKernel, GemmBackend, Matrix, NaiveKernel,
    ShardedKernel,
};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3_f64, len)
}

fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0_f64, n * n).prop_map(move |d| Matrix::from_vec(n, n, d))
}

proptest! {
    #[test]
    fn dot_is_commutative(a in finite_vec(8), b in finite_vec(8)) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn dot_is_linear_in_first_arg(a in finite_vec(6), b in finite_vec(6), alpha in -5.0..5.0_f64) {
        let scaled: Vec<f64> = a.iter().map(|x| alpha * x).collect();
        prop_assert!((dot(&scaled, &b) - alpha * dot(&a, &b)).abs() < 1e-4);
    }

    #[test]
    fn cauchy_schwarz(a in finite_vec(5), b in finite_vec(5)) {
        prop_assert!(dot(&a, &b).abs() <= l2_norm(&a) * l2_norm(&b) + 1e-6);
    }

    #[test]
    fn matmul_is_associative(a in square_matrix(3), b in square_matrix(3), c in square_matrix(3)) {
        let ab_c = a.matmul(&b).matmul(&c);
        let a_bc = a.matmul(&b.matmul(&c));
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((ab_c[(i, j)] - a_bc[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn transpose_reverses_product(a in square_matrix(3), b in square_matrix(3)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((lhs[(i, j)] - rhs[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn gaussian_solution_satisfies_system(a in square_matrix(4), b in finite_vec(4)) {
        if let Ok(x) = gaussian_solve(a.clone(), &b) {
            let r = sub(&a.matvec(&x), &b);
            // Residual scaled by solution magnitude: ill-conditioned random
            // matrices can legitimately amplify error.
            let scale = 1.0 + l2_norm(&x) * a.frobenius_norm();
            prop_assert!(l2_norm(&r) / scale < 1e-6);
        }
    }

    #[test]
    fn cholesky_agrees_with_gaussian(m in square_matrix(3), b in finite_vec(3)) {
        // Build an SPD matrix A = M Mᵀ + I.
        let mut a = m.matmul(&m.transpose());
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let xc = cholesky_solve(&a, &b).expect("SPD by construction");
        let xg = gaussian_solve(a.clone(), &b).expect("nonsingular by construction");
        for (c, g) in xc.iter().zip(&xg) {
            prop_assert!((c - g).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_a_distribution(mut v in finite_vec(6)) {
        softmax_in_place(&mut v);
        prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn softmax_shift_invariant(v in finite_vec(5), shift in -100.0..100.0_f64) {
        let mut a = v.clone();
        let mut b: Vec<f64> = v.iter().map(|x| x + shift).collect();
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn log_sum_exp_bounds(v in finite_vec(5)) {
        let m = v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let lse = log_sum_exp(&v);
        prop_assert!(lse >= m - 1e-12);
        prop_assert!(lse <= m + (v.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn sigmoid_in_unit_interval(x in -1e6..1e6_f64) {
        let s = sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn mean_between_min_and_max(v in finite_vec(7)) {
        let m = mean(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_nonnegative(v in finite_vec(7)) {
        prop_assert!(variance(&v) >= -1e-9);
    }

    #[test]
    fn quantile_monotone(v in finite_vec(9), q1 in 0.0..1.0_f64, q2 in 0.0..1.0_f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&v, lo) <= quantile(&v, hi) + 1e-12);
    }
}

/// Shapes on both sides of `blocked`'s small-core cutoff (`SMALL_B_MAX`
/// = 2048 elements of the streamed `B` operand: `k·n` for the plain, nt,
/// prepacked, fused and batched forms, `m·n` for tn). Each side is hit
/// with exactly 2048 elements (the last small-core shape) and 2049 (the
/// first packed one) for both operand forms; the last shape is 2049 for
/// both at once.
#[test]
fn kernels_bit_identical_at_the_small_core_cutoff() {
    for &(m, k, n) in &[
        (9, 32, 64),
        (9, 683, 3),
        (32, 9, 64),
        (683, 9, 3),
        (3, 3, 683),
    ] {
        let seed = 23 + (m * 131 + k * 17 + n) as u64;
        check_kernel_equivalence(m, k, n, seed);
        check_prepacked_equivalence(m, k, n, seed);
        check_fused_bias_equivalence(m, k, n, seed);
        check_fused_relu_equivalence(m, k, n, seed);
        check_batched_equivalence(m, k, n, 2, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every entry point on random shapes whose streamed operand falls on
    /// either side of `blocked`'s small-core cutoff: dimensions in 32..64
    /// put `k·n` (and `m·n`) anywhere in 1024..3969, about 40% of them at
    /// or below 2048, so both `blocked` cores meet the reference on random
    /// shapes.
    #[test]
    fn kernels_bit_identical_around_the_small_core_cutoff(
        m in 32usize..64,
        k in 32usize..64,
        n in 32usize..64,
        seed in 0u64..100_000,
    ) {
        check_kernel_equivalence(m, k, n, seed);
        check_prepacked_equivalence(m, k, n, seed);
        check_fused_bias_equivalence(m, k, n, seed);
        check_fused_relu_equivalence(m, k, n, seed);
        check_batched_equivalence(m, k, n, 2, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qr_least_squares_satisfies_normal_equations(
        entries in prop::collection::vec(-3.0f64..3.0, 12..=12),
        rhs in prop::collection::vec(-5.0f64..5.0, 6..=6),
    ) {
        // 6x2 design with an intercept column: always full rank.
        let a = Matrix::from_fn(6, 2, |r, c| if c == 0 { 1.0 } else { entries[r] });
        if let Ok(x) = st_linalg::least_squares(&a, &rhs) {
            // AᵀA x = Aᵀ b within tolerance.
            let at = a.transpose();
            let ata = at.matmul(&a);
            let atb: Vec<f64> = (0..2)
                .map(|i| at.row(i).iter().zip(&rhs).map(|(p, q)| p * q).sum())
                .collect();
            for i in 0..2 {
                let lhs: f64 = (0..2).map(|j| ata[(i, j)] * x[j]).sum();
                prop_assert!((lhs - atb[i]).abs() < 1e-6, "row {i}: {lhs} vs {}", atb[i]);
            }
        }
    }

    #[test]
    fn running_stats_merge_is_order_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 1..20),
        ys in prop::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        let mut ab = st_linalg::RunningStats::new();
        ab.extend(&xs);
        let mut b = st_linalg::RunningStats::new();
        b.extend(&ys);
        ab.merge(&b);

        let mut ba = st_linalg::RunningStats::new();
        ba.extend(&ys);
        let mut a2 = st_linalg::RunningStats::new();
        a2.extend(&xs);
        ba.merge(&a2);

        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-9);
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn spearman_is_bounded_and_symmetric(
        xs in prop::collection::vec(-10.0f64..10.0, 3..15),
        shift in -5.0f64..5.0,
    ) {
        let ys: Vec<f64> = xs.iter().rev().map(|v| v + shift).collect();
        let r = st_linalg::spearman(&xs, &ys);
        if r.is_finite() {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r));
            let r2 = st_linalg::spearman(&ys, &xs);
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }

    #[test]
    fn bootstrap_interval_ordering_holds(
        xs in prop::collection::vec(0.0f64..10.0, 2..30),
        seed in 0u64..1000,
    ) {
        let ci = st_linalg::bootstrap_ci(&xs, 100, 0.9, seed, st_linalg::mean);
        prop_assert!(ci.lo <= ci.hi);
        // The point estimate is the statistic on the original sample.
        prop_assert!((ci.point - st_linalg::mean(&xs)).abs() < 1e-12);
    }
}

/// Deterministic dense buffer for the kernel-equivalence suite.
fn kernel_data(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = st_linalg::SplitMix64::new(seed ^ 0xD15E);
    (0..len).map(|_| rng.next_f64() * 6.0 - 3.0).collect()
}

fn assert_bits_equal(op: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{op}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{op}: bit divergence at {i}: {x:?} vs {y:?}"
        );
    }
}

/// Runs every backend op on one `(m, k, n)` shape and asserts bitwise
/// equality of every backend — blocked, and sharded at 1, 2, and N worker
/// threads — against the naive reference.
fn check_kernel_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed);
    let b = kernel_data(k * n, seed.wrapping_add(1));
    let bt = kernel_data(n * k, seed.wrapping_add(2));
    let c = kernel_data(m * n, seed.wrapping_add(3));
    let v = kernel_data(k, seed.wrapping_add(4));
    let w = kernel_data(m, seed.wrapping_add(5));

    let sharded1 = ShardedKernel::with_threads(1);
    let sharded2 = ShardedKernel::with_threads(2);
    let sharded_n = ShardedKernel::with_threads(7);
    let backends: [&dyn GemmBackend; 4] = [&BlockedKernel, &sharded1, &sharded2, &sharded_n];

    let mut x = vec![0.0; m * n];
    NaiveKernel.gemm(m, k, n, &a, &b, &mut x);
    let mut u = vec![0.0; k * n];
    NaiveKernel.gemm_tn(m, k, n, &a, &c, &mut u);
    let mut nt = vec![0.0; m * n];
    NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut nt);
    let mut mv_n = vec![0.0; m];
    NaiveKernel.matvec(m, k, &a, &v, &mut mv_n);
    let mut mt_n = vec![0.0; k];
    NaiveKernel.matvec_t(m, k, &a, &w, &mut mt_n);
    let mut t_n = vec![0.0; m * k];
    NaiveKernel.transpose(m, k, &a, &mut t_n);

    for backend in backends {
        let name = backend.name();
        let mut y = vec![0.0; m * n];
        backend.gemm(m, k, n, &a, &b, &mut y);
        assert_bits_equal(&format!("{name} gemm"), &x, &y);

        y.fill(0.0);
        backend.gemm_nt(m, k, n, &a, &bt, &mut y);
        assert_bits_equal(&format!("{name} gemm_nt"), &nt, &y);

        let mut z = vec![0.0; k * n];
        backend.gemm_tn(m, k, n, &a, &c, &mut z);
        assert_bits_equal(&format!("{name} gemm_tn"), &u, &z);

        let mut mv = vec![0.0; m];
        backend.matvec(m, k, &a, &v, &mut mv);
        assert_bits_equal(&format!("{name} matvec"), &mv_n, &mv);

        let mut mt = vec![0.0; k];
        backend.matvec_t(m, k, &a, &w, &mut mt);
        assert_bits_equal(&format!("{name} matvec_t"), &mt_n, &mt);

        let mut t = vec![0.0; m * k];
        backend.transpose(m, k, &a, &mut t);
        assert_bits_equal(&format!("{name} transpose"), &t_n, &t);
    }
}

/// Asserts the prepacked entry points are `to_bits`-identical to their
/// pack-on-call twins for every deterministic backend — naive (raw
/// fallback handle), blocked, and sharded at 1, 2, and N worker
/// threads — on one `(m, k, n)` shape.
fn check_prepacked_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed.wrapping_add(11));
    let b = kernel_data(k * n, seed.wrapping_add(12));
    let bt = kernel_data(n * k, seed.wrapping_add(13));
    let c = kernel_data(m * n, seed.wrapping_add(14));

    let sharded1 = ShardedKernel::with_threads(1);
    let sharded2 = ShardedKernel::with_threads(2);
    let sharded_n = ShardedKernel::with_threads(7);
    let backends: [&dyn GemmBackend; 5] = [
        &NaiveKernel,
        &BlockedKernel,
        &sharded1,
        &sharded2,
        &sharded_n,
    ];

    for backend in backends {
        let name = backend.name();

        let mut plain = vec![0.0; m * n];
        backend.gemm(m, k, n, &a, &b, &mut plain);
        let pb = backend.pack_b(k, n, &b);
        let mut packed = vec![0.0; m * n];
        backend.gemm_prepacked(m, k, n, &a, &pb, &mut packed);
        assert_bits_equal(&format!("{name} gemm_prepacked"), &plain, &packed);

        let mut plain_nt = vec![0.0; m * n];
        backend.gemm_nt(m, k, n, &a, &bt, &mut plain_nt);
        let pbt = backend.pack_b_t(k, n, &bt);
        let mut packed_nt = vec![0.0; m * n];
        backend.gemm_nt_prepacked(m, k, n, &a, &pbt, &mut packed_nt);
        assert_bits_equal(&format!("{name} gemm_nt_prepacked"), &plain_nt, &packed_nt);

        let mut plain_tn = vec![0.0; k * n];
        backend.gemm_tn(m, k, n, &a, &c, &mut plain_tn);
        let pa = backend.pack_a(m, k, &a);
        let mut packed_tn = vec![0.0; k * n];
        backend.gemm_tn_prepacked(m, k, n, &pa, &c, &mut packed_tn);
        assert_bits_equal(&format!("{name} gemm_tn_prepacked"), &plain_tn, &packed_tn);
    }
}

/// Asserts the fused-bias epilogue (`gemm_prepacked_bias`) is
/// `to_bits`-identical to `gemm_prepacked` followed by a separate
/// element-wise bias pass, for every deterministic backend — naive (raw
/// fallback handle), blocked, and sharded at 1, 2, and N worker
/// threads — on one `(m, k, n)` shape.
fn check_fused_bias_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed.wrapping_add(21));
    let b = kernel_data(k * n, seed.wrapping_add(22));
    let bias = kernel_data(n, seed.wrapping_add(23));

    let sharded1 = ShardedKernel::with_threads(1);
    let sharded2 = ShardedKernel::with_threads(2);
    let sharded_n = ShardedKernel::with_threads(7);
    let backends: [&dyn GemmBackend; 5] = [
        &NaiveKernel,
        &BlockedKernel,
        &sharded1,
        &sharded2,
        &sharded_n,
    ];

    for backend in backends {
        let name = backend.name();
        let pb = backend.pack_b(k, n, &b);
        let mut want = vec![0.0; m * n];
        backend.gemm_prepacked(m, k, n, &a, &pb, &mut want);
        if n > 0 {
            for row in want.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(&bias) {
                    *o += bv;
                }
            }
        }
        let mut fused = vec![0.0; m * n];
        backend.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut fused);
        assert_bits_equal(&format!("{name} gemm_prepacked_bias"), &want, &fused);
    }
}

/// Asserts the fused-ReLU epilogue (`gemm_prepacked_bias_relu`) is
/// `to_bits`-identical to `gemm_prepacked_bias` followed by a separate
/// clamp-at-zero pass, for every deterministic backend — naive (raw
/// fallback handle), blocked, and sharded at 1, 2, and N worker
/// threads — on one `(m, k, n)` shape.
fn check_fused_relu_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed.wrapping_add(26));
    let b = kernel_data(k * n, seed.wrapping_add(27));
    let bias = kernel_data(n, seed.wrapping_add(28));

    let sharded1 = ShardedKernel::with_threads(1);
    let sharded2 = ShardedKernel::with_threads(2);
    let sharded_n = ShardedKernel::with_threads(7);
    let backends: [&dyn GemmBackend; 5] = [
        &NaiveKernel,
        &BlockedKernel,
        &sharded1,
        &sharded2,
        &sharded_n,
    ];

    for backend in backends {
        let name = backend.name();
        let pb = backend.pack_b(k, n, &b);
        let mut want = vec![0.0; m * n];
        backend.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut want);
        for v in want.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut fused = vec![0.0; m * n];
        backend.gemm_prepacked_bias_relu(m, k, n, &a, &pb, &bias, &mut fused);
        assert_bits_equal(&format!("{name} gemm_prepacked_bias_relu"), &want, &fused);
    }
}

/// Asserts every batched entry point is `to_bits`-identical to the same
/// backend's sequential per-product loop — the batched-GEMM contract — on
/// one `(m, k, n)` shape with `batch` products, for every deterministic
/// backend including sharded at 1, 2, and N worker threads. Covers both
/// the per-product-operand form and the length-1 broadcast form (shared
/// `B` for `gemm_batched`, shared `A` for the prepacked entries).
fn check_batched_equivalence(m: usize, k: usize, n: usize, batch: usize, seed: u64) {
    let salt = |tag: u64, i: usize| seed.wrapping_add(tag.wrapping_mul(97) + i as u64);
    let avs: Vec<Vec<f64>> = (0..batch)
        .map(|i| kernel_data(m * k, salt(31, i)))
        .collect();
    let bvs: Vec<Vec<f64>> = (0..batch)
        .map(|i| kernel_data(k * n, salt(32, i)))
        .collect();
    let btvs: Vec<Vec<f64>> = (0..batch)
        .map(|i| kernel_data(n * k, salt(33, i)))
        .collect();
    let cvs: Vec<Vec<f64>> = (0..batch)
        .map(|i| kernel_data(m * n, salt(34, i)))
        .collect();
    let biasvs: Vec<Vec<f64>> = (0..batch).map(|i| kernel_data(n, salt(35, i))).collect();
    let a_refs: Vec<&[f64]> = avs.iter().map(Vec::as_slice).collect();
    let b_refs: Vec<&[f64]> = bvs.iter().map(Vec::as_slice).collect();
    let bt_refs: Vec<&[f64]> = btvs.iter().map(Vec::as_slice).collect();
    let c_refs: Vec<&[f64]> = cvs.iter().map(Vec::as_slice).collect();
    let bias_refs: Vec<&[f64]> = biasvs.iter().map(Vec::as_slice).collect();

    let sharded1 = ShardedKernel::with_threads(1);
    let sharded2 = ShardedKernel::with_threads(2);
    let sharded_n = ShardedKernel::with_threads(7);
    let backends: [&dyn GemmBackend; 5] = [
        &NaiveKernel,
        &BlockedKernel,
        &sharded1,
        &sharded2,
        &sharded_n,
    ];

    // Runs `run_batched` and asserts each product matches `run_single(i)`.
    let check = |name: &str,
                 op: &str,
                 out_len: usize,
                 run_single: &dyn Fn(usize, &mut [f64]),
                 run_batched: &dyn Fn(&mut [&mut [f64]])| {
        let mut want = vec![vec![0.0; out_len]; batch];
        for (i, w) in want.iter_mut().enumerate() {
            run_single(i, w);
        }
        let mut got = vec![vec![0.0; out_len]; batch];
        {
            let mut outs: Vec<&mut [f64]> = got.iter_mut().map(Vec::as_mut_slice).collect();
            run_batched(&mut outs);
        }
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_bits_equal(&format!("{name} {op} product {i}"), w, g);
        }
    };

    for backend in backends {
        let name = backend.name();
        check(
            name,
            "gemm_batched",
            m * n,
            &|i, out| backend.gemm(m, k, n, a_refs[i], b_refs[i], out),
            &|outs| backend.gemm_batched(m, k, n, &a_refs, &b_refs, outs),
        );
        check(
            name,
            "gemm_batched shared-B",
            m * n,
            &|i, out| backend.gemm(m, k, n, a_refs[i], b_refs[0], out),
            &|outs| backend.gemm_batched(m, k, n, &a_refs, &b_refs[..1], outs),
        );
        check(
            name,
            "gemm_batched_nt",
            m * n,
            &|i, out| backend.gemm_nt(m, k, n, a_refs[i], bt_refs[i], out),
            &|outs| backend.gemm_batched_nt(m, k, n, &a_refs, &bt_refs, outs),
        );
        check(
            name,
            "gemm_batched_tn",
            k * n,
            &|i, out| backend.gemm_tn(m, k, n, a_refs[i], c_refs[i], out),
            &|outs| backend.gemm_batched_tn(m, k, n, &a_refs, &c_refs, outs),
        );

        let packs: Vec<_> = bvs.iter().map(|b| backend.pack_b(k, n, b)).collect();
        let pack_refs: Vec<&st_linalg::PackedB> = packs.iter().collect();
        check(
            name,
            "gemm_batched_prepacked",
            m * n,
            &|i, out| backend.gemm_prepacked(m, k, n, a_refs[i], pack_refs[i], out),
            &|outs| backend.gemm_batched_prepacked(m, k, n, &a_refs, &pack_refs, outs),
        );
        check(
            name,
            "gemm_batched_prepacked shared-A",
            m * n,
            &|i, out| backend.gemm_prepacked(m, k, n, a_refs[0], pack_refs[i], out),
            &|outs| backend.gemm_batched_prepacked(m, k, n, &a_refs[..1], &pack_refs, outs),
        );
        check(
            name,
            "gemm_batched_prepacked_bias",
            m * n,
            &|i, out| {
                backend.gemm_prepacked_bias(m, k, n, a_refs[i], pack_refs[i], bias_refs[i], out)
            },
            &|outs| {
                backend.gemm_batched_prepacked_bias(m, k, n, &a_refs, &pack_refs, &bias_refs, outs)
            },
        );
        check(
            name,
            "gemm_batched_prepacked_bias_relu",
            m * n,
            &|i, out| {
                backend.gemm_prepacked_bias_relu(
                    m,
                    k,
                    n,
                    a_refs[i],
                    pack_refs[i],
                    bias_refs[i],
                    out,
                )
            },
            &|outs| {
                backend.gemm_batched_prepacked_bias_relu(
                    m, k, n, &a_refs, &pack_refs, &bias_refs, outs,
                )
            },
        );
        check(
            name,
            "gemm_batched_prepacked_bias_relu shared-A",
            m * n,
            &|i, out| {
                backend.gemm_prepacked_bias_relu(
                    m,
                    k,
                    n,
                    a_refs[0],
                    pack_refs[i],
                    bias_refs[i],
                    out,
                )
            },
            &|outs| {
                backend.gemm_batched_prepacked_bias_relu(
                    m,
                    k,
                    n,
                    &a_refs[..1],
                    &pack_refs,
                    &bias_refs,
                    outs,
                )
            },
        );
    }
}

/// The fixed shape gallery the ISSUE calls out: degenerate (empty, 1×1),
/// prime, and just-past-blocking-boundary dimensions.
#[test]
fn kernels_bit_identical_on_degenerate_and_prime_shapes() {
    for &(m, k, n) in &[
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 7, 1),
        (2, 3, 5),
        (7, 11, 13),
        (31, 37, 41),
        (61, 67, 71),
        (1, 64, 129),
        (5, 1, 9),
        (8, 8, 8),
        (65, 2, 3),
    ] {
        check_kernel_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        check_prepacked_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        check_fused_bias_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        check_fused_relu_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        // Batch 3 walks the shared/broadcast and per-product arms with a
        // non-trivial remainder under any worker split; batch 1 pins the
        // single-product edge of every batched entry point.
        check_batched_equivalence(m, k, n, 3, 7 + (m * 131 + k * 17 + n) as u64);
        check_batched_equivalence(m, k, n, 1, 19 + (m * 131 + k * 17 + n) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked vs naive bit-identity on random rectangular shapes,
    /// including empty dimensions (the ranges start at 0).
    #[test]
    fn kernels_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_kernel_equivalence(m, k, n, seed);
    }

    /// Every entry point on random shapes whose streamed operand is above
    /// `blocked`'s small-core cutoff (`k·n` ≥ 64·33 > 2048; the swapped
    /// call puts gemm_tn's `m·n` there too): the packed core with random
    /// row and column remainders, and the axpy path for `m` < 5.
    #[test]
    fn kernels_bit_identical_on_random_shapes_above_the_cutoff(
        m in 0usize..80,
        k in 64usize..80,
        n in 33usize..48,
        seed in 0u64..100_000,
    ) {
        check_kernel_equivalence(m, k, n, seed);
        check_kernel_equivalence(k, m, n, seed);
        check_prepacked_equivalence(m, k, n, seed);
        check_fused_bias_equivalence(m, k, n, seed);
        check_fused_relu_equivalence(m, k, n, seed);
        check_batched_equivalence(m, k, n, 2, seed);
    }

    /// Prepacked gemm/gemm_nt/gemm_tn vs their pack-on-call twins on
    /// random rectangular shapes (empty dimensions included), across
    /// every deterministic backend.
    #[test]
    fn prepacked_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_prepacked_equivalence(m, k, n, seed);
    }

    /// The fused-bias forward vs the unfused `gemm_prepacked` +
    /// bias-rows sequence on random rectangular shapes (empty dimensions
    /// included — a `k == 0` product must still broadcast the bias),
    /// across every deterministic backend.
    #[test]
    fn fused_bias_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_fused_bias_equivalence(m, k, n, seed);
    }

    /// The fused-ReLU forward vs the fused-bias call plus a separate
    /// clamp-at-zero pass on random rectangular shapes (empty dimensions
    /// included), across every deterministic backend.
    #[test]
    fn fused_relu_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_fused_relu_equivalence(m, k, n, seed);
    }

    /// Every batched entry point vs the same backend's sequential
    /// per-product loop on random rectangular shapes and batch sizes
    /// (empty dimensions included), across every deterministic backend —
    /// the batched-GEMM contract.
    #[test]
    fn batched_bit_identical_on_random_shapes(
        m in 0usize..16,
        k in 0usize..16,
        n in 0usize..16,
        batch in 1usize..5,
        seed in 0u64..100_000,
    ) {
        check_batched_equivalence(m, k, n, batch, seed);
    }

    /// The Matrix layer dispatches every product through the process-wide
    /// kernel; whatever backend is active must agree with the reference
    /// backend bit-for-bit.
    #[test]
    fn matrix_ops_match_reference_kernel(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        seed in 0u64..100_000,
    ) {
        let a = Matrix::from_vec(m, k, kernel_data(m * k, seed));
        let b = Matrix::from_vec(k, n, kernel_data(k * n, seed ^ 1));
        let product = a.matmul(&b);
        let mut reference = vec![0.0; m * n];
        NaiveKernel.gemm(m, k, n, a.as_slice(), b.as_slice(), &mut reference);
        assert_bits_equal("Matrix::matmul", product.as_slice(), &reference);

        let bt = Matrix::from_vec(n, k, kernel_data(n * k, seed ^ 2));
        assert_bits_equal(
            "Matrix::matmul_nt",
            a.matmul_nt(&bt).as_slice(),
            a.matmul(&bt.transpose()).as_slice(),
        );
        let c = Matrix::from_vec(m, n, kernel_data(m * n, seed ^ 3));
        assert_bits_equal(
            "Matrix::matmul_tn",
            a.matmul_tn(&c).as_slice(),
            a.transpose().matmul(&c).as_slice(),
        );
    }
}
