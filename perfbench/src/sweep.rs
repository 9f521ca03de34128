//! `spec_sweep`: the Figure-16 configuration — the 21 selected benchmarks
//! under EH, DPEH, Dynamic@50, Static (own `train` profile) and Direct,
//! one run at a time on one thread.

use crate::common::{self, median, secs, us, Counts, Draw, Obj, SETUP_REPS};
use crate::Args;
use bridge_bench::{dpeh_config, eh_config, geomean, FUEL};
use bridge_dbt::engine::{profile_program, states_equivalent};
use bridge_dbt::interp::run_interp_only;
use bridge_dbt::{Dbt, DbtConfig, MdaStrategy, Profile};
use bridge_sim::cost::CostModel;
use bridge_sim::Memory;
use bridge_trace::SpanConfig;
use bridge_workloads::{build, selected_benchmarks, InputSet, Scale, SpecBenchmark, Workload};
use bridge_x86::{CpuState, Reg32};
use std::time::Instant;

/// Figure 16's mechanisms in column order; geomeans normalise to EH.
pub const STRATEGIES: [MdaStrategy; 5] = [
    MdaStrategy::ExceptionHandling,
    MdaStrategy::Dpeh,
    MdaStrategy::DynamicProfiling,
    MdaStrategy::StaticProfiling,
    MdaStrategy::Direct,
];

/// The paper's Figure 16 geomeans (normalised to EH) for DPEH, Dynamic,
/// Static and Direct, as quoted by `bridge_bench::experiments::fig16`.
pub const PAPER_GEOMEANS: [f64; 4] = [0.955, 1.16, 1.10, 1.68];

/// Each benchmark's `outer_iters` is drawn from this band (percent of
/// `Scale::quick()`).
const ITER_BAND_PCT: (u32, u32) = (95, 105);

/// Span ring large enough that a traced quick-scale run drops nothing.
const SPAN_RING: usize = 1 << 21;

/// The engine configuration Figure 16 uses for `strategy`.
pub fn figure16_config(strategy: MdaStrategy, train: Option<&Profile>) -> DbtConfig {
    match strategy {
        MdaStrategy::ExceptionHandling => eh_config(),
        MdaStrategy::Dpeh => dpeh_config(),
        MdaStrategy::DynamicProfiling => DbtConfig::new(strategy).with_threshold(50),
        MdaStrategy::StaticProfiling => DbtConfig::new(strategy).with_static_profile(
            train
                .expect("static runs need a profile")
                .to_static_profile(),
        ),
        MdaStrategy::Direct => DbtConfig::new(strategy),
    }
}

/// Mean absolute error (percent) of measured Figure-16 geomeans against
/// [`PAPER_GEOMEANS`]. `cycles[i][s]` is benchmark `i` under
/// `STRATEGIES[s]`.
pub fn paper_error_pct(cycles: &[[u64; 5]]) -> (Vec<f64>, f64) {
    let geos: Vec<f64> = (1..5)
        .map(|s| {
            let ratios: Vec<f64> = cycles.iter().map(|c| c[s] as f64 / c[0] as f64).collect();
            geomean(&ratios)
        })
        .collect();
    let err = geos
        .iter()
        .zip(PAPER_GEOMEANS)
        .map(|(g, p)| (g - p).abs() / p * 100.0)
        .sum::<f64>()
        / 4.0;
    (geos, err)
}

struct Input {
    bench: &'static SpecBenchmark,
    train: Workload,
    reference: Workload,
    /// The reference interpreter's final state and observed memory.
    oracle: (CpuState, Vec<Vec<u8>>),
    order: [usize; 5],
}

/// Interprets `w` with the reference interpreter and reads back its data
/// segments.
fn reference_run(w: &Workload) -> Result<(CpuState, Vec<Vec<u8>>), String> {
    let mut mem = Memory::new();
    mem.write_bytes(u64::from(w.program.base()), w.program.image());
    for (addr, bytes) in &w.data {
        mem.write_bytes(u64::from(*addr), bytes);
    }
    let mut state = CpuState::new(w.program.entry());
    state.set_reg(Reg32::Esp, w.stack_top);
    let mut profile = Profile::new();
    let halted = run_interp_only(&mut state, &mut mem, &mut profile, &CostModel::es40(), FUEL)
        .map_err(|e| format!("reference interpreter failed: {e:?}"))?;
    if !halted {
        return Err("reference interpreter ran out of fuel".into());
    }
    Ok((state, observed(w, |a, b| mem.read_bytes(a, b))))
}

fn observed(w: &Workload, read: impl Fn(u64, &mut [u8])) -> Vec<Vec<u8>> {
    w.data
        .iter()
        .map(|(addr, bytes)| {
            let mut buf = vec![0u8; bytes.len()];
            read(u64::from(*addr), &mut buf);
            buf
        })
        .collect()
}

/// Per-sweep accumulators.
#[derive(Default)]
struct Sweep {
    wall_s: f64,
    train_s: f64,
    construct_s: f64,
    run_s: [f64; 5],
    insns: u64,
    train_guest_insns: u64,
    job_us: Vec<f64>,
    construct_us: Vec<f64>,
    cycles: Vec<[u64; 5]>,
    counts: Counts,
    runs: u64,
    span_self_us: [f64; 5],
    span_dropped: u64,
    mismatches: u64,
}

fn one_sweep(inputs: &[Input], traced: bool) -> Result<Sweep, String> {
    let mut sw = Sweep {
        cycles: vec![[0; 5]; inputs.len()],
        ..Sweep::default()
    };
    let started = Instant::now();
    let mut unclocked = 0.0;
    for (i, inp) in inputs.iter().enumerate() {
        for &s in &inp.order {
            let strategy = STRATEGIES[s];
            let t = Instant::now();
            let train = if strategy == MdaStrategy::StaticProfiling {
                let w = &inp.train;
                let (_, p) = profile_program(
                    &w.program,
                    &w.data,
                    Some(w.stack_top),
                    &CostModel::es40(),
                    FUEL,
                )
                .map_err(|e| format!("{}: training run failed: {e:?}", inp.bench.name))?;
                sw.train_guest_insns += p.guest_insns;
                Some(p)
            } else {
                None
            };
            let mut cfg = figure16_config(strategy, train.as_ref());
            let trained = t.elapsed();
            if traced {
                cfg = cfg.with_spans(
                    SpanConfig::default()
                        .with_wall_clock(true)
                        .with_ring_capacity(SPAN_RING),
                );
            }
            let t1 = Instant::now();
            let mut dbt = Dbt::new(cfg);
            inp.reference.load_into(&mut dbt);
            let constructed = t1.elapsed();
            let t2 = Instant::now();
            let report = dbt
                .run(FUEL)
                .map_err(|e| format!("{} under {}: {e:?}", inp.bench.name, strategy.slug()))?;
            let ran = t2.elapsed();

            // Oracle and span bookkeeping run off the clock.
            let off = Instant::now();
            let mem = observed(&inp.reference, |a, b| dbt.machine().mem().read_bytes(a, b));
            if !states_equivalent(&report.final_state, &inp.oracle.0) || mem != inp.oracle.1 {
                eprintln!(
                    "oracle mismatch: {} under {}",
                    inp.bench.name,
                    strategy.slug()
                );
                sw.mismatches += 1;
            }
            if let Some(rec) = dbt.take_span_recorder() {
                for (acc, v) in sw.span_self_us.iter_mut().zip(common::engine_self_us(&rec)) {
                    *acc += v;
                }
                sw.span_dropped += rec.dropped();
            }
            sw.train_s += secs(trained);
            sw.construct_s += secs(constructed);
            sw.run_s[s] += secs(ran);
            sw.insns += report.stats.insns;
            sw.job_us.push(us(trained + constructed + ran));
            sw.construct_us.push(us(constructed));
            sw.cycles[i][s] = report.stats.cycles;
            sw.counts.add(&report);
            sw.runs += 1;
            drop(dbt);
            unclocked += secs(off.elapsed());
        }
    }
    sw.wall_s = secs(started.elapsed()) - unclocked;
    Ok(sw)
}

pub fn run(args: &Args, out: &mut Obj) -> Result<(), String> {
    let mut draw = Draw::new(args.seed, 1);
    let mut plan: Vec<(&'static SpecBenchmark, Scale)> = selected_benchmarks()
        .map(|b| {
            let pct = draw.range(ITER_BAND_PCT.0, ITER_BAND_PCT.1);
            let outer_iters = Scale::quick().outer_iters * pct / 100;
            (b, Scale { outer_iters })
        })
        .collect();
    draw.shuffle(&mut plan);
    let orders: Vec<[usize; 5]> = plan
        .iter()
        .map(|_| {
            let mut o = [0, 1, 2, 3, 4];
            draw.shuffle(&mut o);
            o
        })
        .collect();

    // Set-up: generate every benchmark's train and ref inputs.
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = plan
            .iter()
            .map(|&(b, scale)| {
                let spec = b.workload(scale);
                let t = Instant::now();
                let train = build(&spec, InputSet::Train);
                let reference = build(&spec, InputSet::Ref);
                build_ms.push(secs(t.elapsed()) * 1e3 / 2.0);
                (b, train, reference)
            })
            .collect();
        setup_s.push(secs(t.elapsed()));
    }

    // The oracle: the reference interpreter on every `ref` input.
    let mut inputs = Vec::new();
    for ((bench, train, reference), order) in built.into_iter().zip(orders) {
        let oracle = reference_run(&reference)?;
        inputs.push(Input {
            bench,
            train,
            reference,
            oracle,
            order,
        });
    }

    let started = Instant::now();
    // Whole sweeps only: another starts while the last one's duration
    // still fits in the time left. A traced run spends the first half of
    // its time on untraced sweeps and the rest on traced ones.
    let mut sweeps: Vec<(bool, Sweep)> = Vec::new();
    let phases: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 1.0)]
    } else {
        &[(false, 1.0)]
    };
    for &(traced, share) in phases {
        loop {
            let sw = one_sweep(&inputs, traced)?;
            let last = sw.wall_s;
            sweeps.push((traced, sw));
            if secs(started.elapsed()) + last > args.seconds * share {
                break;
            }
        }
    }
    let peak_kb = common::status_kb("VmHWM");

    let first = &sweeps[0].1;
    let (geos, err) = paper_error_pct(&first.cycles);
    // Every sweep must reproduce the first sweep's cycles and counts.
    let drift = sweeps
        .iter()
        .filter(|(_, s)| s.cycles != first.cycles || s.counts != first.counts)
        .count() as u64;
    let mismatches: u64 = sweeps.iter().map(|(_, s)| s.mismatches).sum::<u64>() + drift;

    let sweep_objs = sweeps
        .iter()
        .map(|(traced, s)| {
            let mut o = Obj::new();
            o.flag("traced", *traced)
                .num("wall_s", s.wall_s)
                .num("train_s", s.train_s)
                .num("construct_s", s.construct_s)
                .nums("run_s", s.run_s)
                .int("insns", s.insns)
                .int("train_guest_insns", s.train_guest_insns)
                .nums("job_us", s.job_us.iter().copied())
                .nums("construct_us", s.construct_us.iter().copied())
                .nums("span_self_us", s.span_self_us)
                .int("span_dropped", s.span_dropped);
            o
        })
        .collect();
    out.nums("setup_s", setup_s)
        .num("build_ms_median", median(&mut build_ms))
        .objs("sweeps", sweep_objs)
        .obj("counts", first.counts.emit())
        .nums("geomeans", geos)
        .num("paper_error_pct", err)
        .int("peak_rss_kb", peak_kb)
        .int("attempted", sweeps.iter().map(|(_, s)| s.runs).sum())
        .int("failed", mismatches);
    Ok(())
}
