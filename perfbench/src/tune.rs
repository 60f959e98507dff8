//! The `tune-small` and `tune-wide` workloads: whole `SliceTuner::try_run`
//! calls on the configuration `slice-tuner-cli tune` uses.

use crate::clock::Clocked;
use crate::layers::{self, cli_config, model_for, LayerInputs};
use crate::util::{mean, median, ms_since, p90, peak_rss_mb, Rng, Sheet};
use slice_tuner::{PoolSource, SliceTuner, Strategy, TSchedule};
use st_data::{families, DatasetFamily, SlicedDataset};
use std::time::{Duration, Instant};

/// One tune workload's input distribution.
pub struct TuneWorkload {
    pub family: fn() -> DatasetFamily,
    /// Starting slice sizes; each input assigns them to the slices in a
    /// seed-drawn order, so every input is equally uneven and equally big.
    pub sizes: &'static [usize],
    /// Validation examples per slice (the CLI default).
    pub validation: usize,
    pub budget: f64,
    /// Distinct inputs per seed. Runs cycle through them, so a faster
    /// program measures more cycles of the same inputs; `loss`, `avg_eer`
    /// and the per-layer counts are means over them and repeat exactly.
    pub inputs: usize,
    /// Repetitions of each per-layer timing in the traced run.
    pub probe_reps: usize,
}

pub fn tune_small() -> TuneWorkload {
    TuneWorkload {
        family: families::census,
        sizes: &[40, 90, 160, 260],
        validation: 300,
        budget: 800.0,
        inputs: 64,
        probe_reps: 15,
    }
}

pub fn tune_wide() -> TuneWorkload {
    TuneWorkload {
        family: families::fashion,
        sizes: &[30, 45, 60, 75, 90, 105, 120, 135, 150, 165],
        validation: 300,
        budget: 1000.0,
        inputs: 16,
        probe_reps: 3,
    }
}

/// The `index`-th input of a seed: a tuner seed and the slice sizes in a
/// seed-drawn order.
pub struct RunInput {
    pub seed: u64,
    pub sizes: Vec<usize>,
}

impl TuneWorkload {
    pub fn input(&self, seed: u64, index: usize) -> RunInput {
        let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ index as u64);
        let run_seed = rng.next_u64() >> 16;
        RunInput {
            seed: run_seed,
            sizes: rng.shuffled(self.sizes),
        }
    }
}

/// What one tuning run produced and cost.
pub struct RunRecord {
    /// Which of the seed's inputs ran.
    pub input: usize,
    pub run_ms: f64,
    pub round_ms: Vec<f64>,
    pub loss: f64,
    pub avg_eer: f64,
    pub acquired: Vec<usize>,
    /// Rows acquired per slice in each round (index 0: the pre-pass).
    pub round_rows: Vec<Vec<usize>>,
    pub iterations: usize,
    pub trainings: usize,
    pub solves: usize,
    pub acquire_calls: usize,
    pub acquire_rows: usize,
    pub acquire_ms: f64,
}

/// Runs one input through `try_run`, checking its outputs.
pub fn run_one(
    w: &TuneWorkload,
    family: &DatasetFamily,
    seed: u64,
    index: usize,
    trace: bool,
    sheet: &mut Sheet,
) -> Option<RunRecord> {
    let n = family.num_slices();
    let input = w.input(seed, index);
    let ds = SlicedDataset::generate(family, &input.sizes, w.validation, input.seed);
    let mut source = Clocked::new(PoolSource::new(family.clone(), input.seed), n, trace);
    let costs: Vec<f64> = (0..n).map(|i| family.slices[i].cost).collect();
    let cfg = cli_config(family, input.seed);
    let t = Instant::now();
    let outcome = SliceTuner::new(ds, &mut source, cfg)
        .try_run(Strategy::Iterative(TSchedule::moderate()), w.budget);
    let run_ms = ms_since(t);
    sheet.attempted += 1;
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            sheet.fail(format!("run seed {}: {e}", input.seed));
            return None;
        }
    };
    let round_ms = source.round_ms();
    let charged: f64 = result
        .acquired
        .iter()
        .zip(&costs)
        .map(|(&a, c)| a as f64 * c)
        .sum();
    let mut problems = Vec::new();
    if result.spent > w.budget {
        problems.push(format!("spent {} over budget {}", result.spent, w.budget));
    }
    if (charged - result.spent).abs() > 1e-9 * w.budget {
        problems.push(format!(
            "spent {} but acquired counts cost {charged}",
            result.spent
        ));
    }
    if source.rows != result.acquired {
        problems.push(format!(
            "source returned {:?} rows but the run reports {:?}",
            source.rows, result.acquired
        ));
    }
    if !result.report.overall_loss.is_finite() || !result.report.avg_eer.is_finite() {
        problems.push("non-finite final loss or avg EER".to_string());
    }
    if round_ms.len() != result.iterations {
        problems.push(format!(
            "measured {} rounds, run reports {}",
            round_ms.len(),
            result.iterations
        ));
    }
    for p in problems {
        sheet.fail(format!("run seed {}: {p}", input.seed));
    }
    Some(RunRecord {
        input: index,
        run_ms,
        round_ms,
        loss: result.report.overall_loss,
        avg_eer: result.report.avg_eer,
        acquired: result.acquired,
        round_rows: source.round_rows.clone(),
        iterations: result.iterations,
        trainings: result.trainings,
        solves: source.solves(),
        acquire_calls: source.acquire_calls,
        acquire_rows: source.rows.iter().sum(),
        acquire_ms: source.acquire_ms,
    })
}

/// Cycles through the inputs until `limit` passes (but at least once
/// through), or runs exactly `count` inputs when given.
fn run_loop(
    w: &TuneWorkload,
    family: &DatasetFamily,
    seed: u64,
    limit: Duration,
    count: Option<usize>,
    trace: bool,
    sheet: &mut Sheet,
) -> (Vec<RunRecord>, f64) {
    let t = Instant::now();
    let mut records = Vec::new();
    for i in 0.. {
        let done = match count {
            Some(c) => i >= c,
            None => i >= w.inputs && t.elapsed() >= limit,
        };
        if done {
            break;
        }
        if let Some(r) = run_one(w, family, seed, i % w.inputs, trace, sheet) {
            records.push(r);
        }
    }
    (records, t.elapsed().as_secs_f64())
}

/// Set-up: build the family and every input's dataset with its first
/// dense snapshot. Repeated five times; the median is reported.
fn setup_s(w: &TuneWorkload, seed: u64) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let family = (w.family)();
            for i in 0..w.inputs {
                let input = w.input(seed, i);
                let ds = SlicedDataset::generate(&family, &input.sizes, w.validation, input.seed);
                std::hint::black_box(ds.matrices());
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Every repetition of an input must reproduce its first run exactly.
fn check_repeats(records: &[RunRecord], sheet: &mut Sheet) {
    for r in records {
        let first = records.iter().find(|f| f.input == r.input).expect("itself");
        sheet.check(same_outcome(first, r), || {
            format!(
                "input {}: a repeated run differs from its first run",
                r.input
            )
        });
    }
}

fn same_outcome(a: &RunRecord, b: &RunRecord) -> bool {
    a.acquired == b.acquired
        && a.loss.to_bits() == b.loss.to_bits()
        && a.avg_eer.to_bits() == b.avg_eer.to_bits()
        && a.trainings == b.trainings
}

fn input_mean(records: &[RunRecord], inputs: usize, f: impl Fn(&RunRecord) -> f64) -> f64 {
    let v: Vec<f64> = records.iter().take(inputs).map(f).collect();
    mean(&v)
}

pub fn run(w: &TuneWorkload, seed: u64, seconds: u64, trace: bool, work: &str) -> Sheet {
    let mut sheet = Sheet::default();
    if !trace {
        let setup = setup_s(w, seed);
        let family = (w.family)();
        let (records, elapsed) = run_loop(
            w,
            &family,
            seed,
            Duration::from_secs(seconds),
            None,
            false,
            &mut sheet,
        );
        check_repeats(&records, &mut sheet);
        let runs: Vec<f64> = records.iter().map(|r| r.run_ms).collect();
        let rounds: Vec<f64> = records.iter().flat_map(|r| r.round_ms.clone()).collect();
        sheet.note(format!(
            "{} runs, {} rounds in {elapsed:.1} s",
            runs.len(),
            rounds.len()
        ));
        for (name, v) in [("run_ms_p90", &runs), ("round_ms_p90", &rounds)] {
            if let Some(p) = p90(v) {
                sheet.note(format!("{name} {p:.3} ms"));
            }
        }
        sheet.metric("setup_s", setup, "s");
        sheet.metric("run_ms_p50", median(&runs), "ms");
        sheet.metric("round_ms_p50", median(&rounds), "ms");
        sheet.metric("loss", input_mean(&records, w.inputs, |r| r.loss), "nats");
        sheet.metric(
            "avg_eer",
            input_mean(&records, w.inputs, |r| r.avg_eer),
            "nats",
        );
        sheet.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return sheet;
    }

    // Traced: the same inputs untraced, then traced, then the layer probes.
    let family = (w.family)();
    let limit = Duration::from_secs_f64(seconds as f64 * 0.3);
    let (plain, plain_s) = run_loop(w, &family, seed, limit, None, false, &mut sheet);
    let (traced, traced_s) = run_loop(w, &family, seed, limit, Some(plain.len()), true, &mut sheet);
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        sheet.check(same_outcome(a, b), || {
            format!("run {i}: the traced run differs from the untraced run")
        });
    }
    let input = w.input(seed, 0);
    let midway = input
        .sizes
        .iter()
        .zip(&traced[0].acquired)
        .map(|(s, a)| s + a / 2)
        .collect();
    let inputs = LayerInputs {
        family: family.clone(),
        model: model_for(&family),
        sizes: input.sizes.clone(),
        midway,
        validation: w.validation,
        seed: input.seed,
        budget: w.budget,
        reps: w.probe_reps,
    };
    if layers::probe(&inputs, work, &mut sheet).is_none() {
        return sheet;
    }
    let calls: f64 = traced.iter().map(|r| r.acquire_calls as f64).sum();
    let acquire_ms = traced.iter().map(|r| r.acquire_ms).sum::<f64>() / calls.max(1.0);
    let n = w.inputs;
    sheet.metric(
        "models.trainings",
        input_mean(&traced, n, |r| r.trainings as f64),
        "count",
    );
    sheet.metric(
        "optim.solves",
        input_mean(&traced, n, |r| r.solves as f64),
        "count",
    );
    sheet.metric(
        "core.rounds",
        input_mean(&traced, n, |r| r.iterations as f64),
        "count",
    );
    sheet.metric(
        "core.acquire_calls",
        input_mean(&traced, n, |r| r.acquire_calls as f64),
        "count",
    );
    sheet.metric(
        "core.acquire_rows",
        input_mean(&traced, n, |r| r.acquire_rows as f64),
        "count",
    );
    sheet.metric("core.acquire_ms", acquire_ms, "ms");

    // Σ count × per-call time over input 0's blocking steps, each timed at
    // the shape the run had when it took it, against the median of input
    // 0's untraced runs.
    let first = &traced[0];
    let start = layers::step_times(&inputs, &inputs.sizes);
    let mut accounted = start.train_ms + start.eval_ms + first.acquire_ms;
    let mut sizes = inputs.sizes.clone();
    for round in 0..=first.iterations {
        if round > 0 {
            accounted += if sizes == inputs.sizes {
                start.estimate_ms + start.solve_ms
            } else {
                let steps = layers::step_times(&inputs, &sizes);
                steps.estimate_ms + steps.solve_ms
            };
        }
        for (s, r) in sizes
            .iter_mut()
            .zip(first.round_rows.get(round).into_iter().flatten())
        {
            *s += r;
        }
    }
    let end = layers::step_times(&inputs, &sizes);
    accounted += end.train_ms + end.eval_ms;
    let own = median(
        &plain
            .iter()
            .filter(|r| r.input == 0)
            .map(|r| r.run_ms)
            .collect::<Vec<_>>(),
    );
    sheet.metric("trace.accounted_share", accounted / own, "ratio");
    sheet.metric("trace.overhead", traced_s / plain_s, "ratio");
    sheet.note(format!(
        "traced run: {} runs untraced in {plain_s:.1} s, traced in {traced_s:.1} s; input 0 ran in {own:.3} ms, its steps account for {accounted:.3} ms",
        plain.len()
    ));
    sheet
}
