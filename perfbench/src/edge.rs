//! The two serve-edge workloads: `edge_closed_hot` (a closed loop over a
//! small warmed set of translation contexts) and `edge_open_cold` (an
//! open loop over a fixed ladder of rates, almost every request naming a
//! new translation context).

use crate::common::{self, median, secs, us, Counts, Draw, Obj, RequestSpans, SETUP_REPS};
use crate::sweep::{paper_error_pct, STRATEGIES};
use crate::{wire, Args};
use bridge_dbt::engine::profile_program;
use bridge_dbt::{Dbt, DbtConfig, MdaStrategy};
use bridge_serve::{
    EdgeClient, EdgeConfig, EdgeServer, EdgeStatus, ExecService, KernelSpec, RunRequest,
    ServeConfig, FUEL,
};
use bridge_sim::cost::CostModel;
use bridge_trace::SpanConfig;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `edge_closed_hot`'s kernels; each runs under all five strategies.
const HOT_SPECS: [KernelSpec; 3] = [
    KernelSpec::MemcpyUnaligned { len: 64 },
    KernelSpec::PackedStructSum { count: 40 },
    KernelSpec::PhaseChangeSum {
        aligned: 40,
        misaligned: 40,
    },
];

/// Seeded permutations of the hot requests making up the closed-loop
/// sequence (clients cycle it). Whole permutations keep the mix, and so
/// the stream's simulated cycles, the same for every seed.
const HOT_ROUNDS: usize = 256;
/// Timed in-process passes over the hot sequence for `sim_mips`.
const RUN_ONE_PASSES: usize = 9;

/// `edge_open_cold`'s offered rates (requests/s), lowest first. One pass
/// climbs the ladder, [`RUNG_REQUESTS`] requests per rung; a run makes as
/// many passes as fit in its time. Calibrated once on a 2-CPU host; see
/// NOTES.md.
const LADDER: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 8000.0];
/// Requests per rung and pass: enough for a p99 with ten samples beyond.
const RUNG_REQUESTS: usize = 1000;
/// Index in [`LADDER`] of the reference rate, where `latency_*` is read.
const REF_RUNG: usize = 0;
/// The open-loop latency limit (ms): a rung passes when its p99 stays
/// under it. Requests also carry it as their deadline.
const LIMIT_MS: u32 = 100;
/// Idle time between rungs so one rung's replies drain before the next.
const RUNG_GAP: Duration = Duration::from_millis(LIMIT_MS as u64 + 100);
/// How long the reader waits for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// How often a traced open-loop phase snapshots the service's spans
/// while it collects the reference rung's request spans.
const SPAN_POLL: Duration = Duration::from_millis(20);
/// Tenants the open-loop stream spreads over.
const TENANTS: u32 = 4;
/// Requests of the cold stream replayed in process for the layer table.
const COLD_LAYER_SAMPLE: usize = 200;

/// Closed-loop client count: two, or fewer on a host with fewer CPUs.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn edge_config(traced: bool) -> EdgeConfig {
    EdgeConfig::default().with_serve(ServeConfig::default().with_spans(traced))
}

/// Starts an edge; returns it with the instant taken just before the
/// start (the service's span epoch lies within `start` after it).
fn start_edge(traced: bool) -> Result<(EdgeServer, Instant, Duration), String> {
    let t0 = Instant::now();
    let server = EdgeServer::start(edge_config(traced)).map_err(|e| format!("edge start: {e}"))?;
    Ok((server, t0, t0.elapsed()))
}

/// What a client saw for one request.
struct Sample {
    /// Index into the phase's request list.
    idx: usize,
    /// Due (open loop) or send (closed loop) time, µs after the phase base.
    due_us: f64,
    send_us: f64,
    /// Reply time, µs after the phase base; negative when never answered.
    recv_us: f64,
    /// `EdgeStatus::code()`, or 255 for a socket error / no reply.
    status: u32,
    digest: u64,
}

const NO_REPLY: u32 = 255;

/// Checks every sample against the oracle digests and emits the client
/// arrays.
fn emit_samples(o: &mut Obj, samples: &[Sample], expected: &[u64]) {
    let ok: Vec<f64> = samples
        .iter()
        .map(|s| {
            let good = s.status == EdgeStatus::Ok.code() && s.digest == expected[s.idx];
            if s.status == EdgeStatus::Ok.code() && !good {
                eprintln!("oracle mismatch: request {}", s.idx);
            }
            f64::from(u8::from(good))
        })
        .collect();
    let failed = ok.iter().filter(|&&g| g == 0.0).count() as u64;
    o.nums("due_us", samples.iter().map(|s| s.due_us))
        .nums("send_us", samples.iter().map(|s| s.send_us))
        .nums("recv_us", samples.iter().map(|s| s.recv_us))
        .nums("status", samples.iter().map(|s| f64::from(s.status)))
        .nums("ok", ok)
        .int("attempted", samples.len() as u64)
        .int("failed", failed);
}

/// In-process oracle: `ExecService::run_one` on a fresh service with the
/// edge's default tuning, recording each distinct request's digest,
/// cycles and counts, and timing every call.
struct Oracle {
    svc: ExecService,
    digest: HashMap<RunRequest, u64>,
    cycles: HashMap<RunRequest, u64>,
    run_one_us: Vec<f64>,
    insns: u64,
    run_one_s: f64,
    counts: Counts,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            svc: ExecService::new(ServeConfig::default()),
            digest: HashMap::new(),
            cycles: HashMap::new(),
            run_one_us: Vec::new(),
            insns: 0,
            run_one_s: 0.0,
            counts: Counts::default(),
        }
    }

    /// Runs `req` through `ExecService::run_one`, timing it; the first
    /// run of each distinct request records its witnesses and counts.
    fn run(&mut self, req: RunRequest) {
        let t = Instant::now();
        let r = self.svc.run_one(req);
        let took = t.elapsed();
        self.run_one_us.push(us(took));
        self.run_one_s += secs(took);
        self.insns += r.report.stats.insns;
        if self.digest.contains_key(&req) {
            return;
        }
        self.digest.insert(req, common::digest_result(&r));
        self.cycles.insert(req, r.report.stats.cycles);
        self.counts.add(&r.report);
    }
}

/// Artifact-memo misses of an in-process service: with the stream
/// replayed in order, a deterministic count of contexts built.
fn memo_misses(svc: &ExecService) -> u64 {
    svc.metrics().counter("serve.memo.misses").get()
}

/// Figure-16 error of `specs` run under all five strategies in process.
fn fig16_error(specs: &[KernelSpec]) -> (Vec<f64>, f64) {
    let svc = ExecService::new(ServeConfig::default());
    let cycles: Vec<[u64; 5]> = specs
        .iter()
        .map(|&spec| STRATEGIES.map(|s| svc.run_one(RunRequest::new(spec, s)).report.stats.cycles))
        .collect();
    paper_error_pct(&cycles)
}

/// Per-layer probes over distinct requests, timed from outside: kernel
/// assembly, training interpretation, engine construction, private
/// engine runs (span self times when traced) and context builds on a
/// fresh service.
fn layer_probe(reqs: &[RunRequest], construct_reps: usize, traced: bool) -> Obj {
    let mut build_ms = Vec::new();
    let mut seen = HashSet::new();
    for req in reqs {
        if seen.insert(req.kernel) {
            let t = Instant::now();
            std::hint::black_box(req.kernel.build());
            build_ms.push(secs(t.elapsed()) * 1e3);
        }
    }
    let mut train_s = 0.0;
    let mut train_insns = 0u64;
    let mut engine_new_us = Vec::new();
    let mut run_s = [0.0; 5];
    let mut span_self_us = [0.0; 5];
    for req in reqs {
        let kernel = req.kernel.build();
        // The engine configuration the service would build, minus the
        // shared cache and the registry: a private translation cache.
        let mut cfg = DbtConfig::new(req.strategy).with_threshold(req.hot_threshold);
        if req.strategy == MdaStrategy::StaticProfiling {
            let w = req.kernel.training_spec().build();
            let t = Instant::now();
            let (_, p) = profile_program(
                &w.program,
                &w.data,
                Some(w.stack_top),
                &CostModel::es40(),
                FUEL,
            )
            .expect("training run halts");
            train_s += secs(t.elapsed());
            train_insns += p.guest_insns;
            cfg = cfg.with_static_profile(p.to_static_profile());
        }
        if traced {
            cfg = cfg.with_spans(SpanConfig::default().with_wall_clock(true));
        }
        for _ in 1..construct_reps {
            let t = Instant::now();
            let mut dbt = Dbt::new(cfg.clone());
            kernel.load_into(&mut dbt);
            engine_new_us.push(us(t.elapsed()));
            std::hint::black_box(dbt);
        }
        let t = Instant::now();
        let mut dbt = Dbt::new(cfg);
        kernel.load_into(&mut dbt);
        engine_new_us.push(us(t.elapsed()));
        let t = Instant::now();
        dbt.run(FUEL).expect("kernel halts within fuel");
        let s = STRATEGIES
            .iter()
            .position(|&s| s == req.strategy)
            .expect("strategy in STRATEGIES");
        run_s[s] += secs(t.elapsed());
        if let Some(rec) = dbt.take_span_recorder() {
            for (acc, v) in span_self_us.iter_mut().zip(common::engine_self_us(&rec)) {
                *acc += v;
            }
        }
    }
    let fresh = ExecService::new(ServeConfig::default());
    let mut context_ms = Vec::new();
    for req in reqs {
        let t = Instant::now();
        fresh.shared_kernel(req.kernel);
        if req.strategy == MdaStrategy::StaticProfiling {
            fresh.shared_profile(req.kernel);
        }
        fresh.shared_cache_for(req);
        context_ms.push(secs(t.elapsed()) * 1e3);
    }
    let mut o = Obj::new();
    o.num("build_ms", median(&mut build_ms))
        .num("profile_program_s", train_s)
        .int("train_guest_insns", train_insns)
        .nums("engine_new_us", engine_new_us)
        .nums("run_s", run_s)
        .nums("span_self_us", span_self_us)
        .nums("context_build_ms", context_ms);
    o
}

/// Scrapes the registry over the socket, then closes the clients and
/// shuts the edge down (readers exit on the clients' EOF).
/// `spans` are request spans gathered earlier in the phase; without
/// them one snapshot is taken here.
fn finish_edge(
    server: EdgeServer,
    clients: Vec<EdgeClient>,
    spans: Option<RequestSpans>,
    o: &mut Obj,
) -> Result<(), String> {
    let mut scraper = EdgeClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let json = scraper
        .metrics_json()
        .map_err(|e| format!("metrics scrape: {e}"))?;
    o.raw("registry", &json);
    let spans = spans.or_else(|| {
        let rec = server.service().span_snapshot()?;
        let mut r = RequestSpans::default();
        r.absorb(&rec);
        Some(r)
    });
    if let Some(r) = spans {
        o.obj("spans", r.emit());
    }
    drop(scraper);
    drop(clients);
    server.shutdown();
    Ok(())
}

fn hot_requests() -> Vec<RunRequest> {
    HOT_SPECS
        .iter()
        .flat_map(|&k| STRATEGIES.map(|s| RunRequest::new(k, s)))
        .collect()
}

/// One closed-loop phase on a fresh, warmed edge.
fn hot_phase(
    reqs: &[RunRequest],
    seq: &[usize],
    traced: bool,
    seconds: f64,
) -> Result<Obj, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, t0, start) = start_edge(traced)?;
        for &req in reqs {
            server.service().run_one(req);
        }
        let conns = (0..clients())
            .map(|_| EdgeClient::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        setup_s.push(secs(t.elapsed()));
        if let Some((s, c, _, _)) = kept.replace((server, conns, t0, start)) {
            drop(c);
            EdgeServer::shutdown(s);
        }
    }
    let (server, mut conns, base, start) = kept.expect("one set-up ran");
    let rss_before = common::status_kb("VmRSS");
    let began = Instant::now();
    let end = began + Duration::from_secs_f64(seconds);
    let n = conns.len();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = 0usize;
                    while Instant::now() < end {
                        let idx = seq[(c + n * k) % seq.len()];
                        let id = ((c as u64) << 32) | k as u64;
                        k += 1;
                        let send = base.elapsed();
                        let reply = client.run(id, c as u32 + 1, 0, reqs[idx]);
                        let recv = base.elapsed();
                        let (status, digest) = match &reply {
                            Ok(r) if r.id == id => (
                                r.status.code(),
                                r.outcome.as_ref().map_or(0, common::digest_outcome),
                            ),
                            _ => (NO_REPLY, 0),
                        };
                        out.push(Sample {
                            idx,
                            due_us: us(send),
                            send_us: us(send),
                            recv_us: if status == NO_REPLY { -1.0 } else { us(recv) },
                            status,
                            digest,
                        });
                        if reply.is_err() {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = secs(began.elapsed());
    let peak_kb = common::status_kb("VmHWM");
    let mut o = Obj::new();
    o.nums("setup_s", setup_s)
        .num("elapsed_s", elapsed_s)
        .num("epoch_tolerance_us", us(start))
        .int("peak_rss_kb", peak_kb)
        .int("rss_before_kb", rss_before);
    finish_edge(server, conns, None, &mut o)?;

    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    samples.sort_by(|a, b| a.send_us.total_cmp(&b.send_us));
    let mut oracle = Oracle::new();
    for &req in reqs {
        oracle.run(req);
    }
    let expected: Vec<u64> = reqs.iter().map(|r| oracle.digest[r]).collect();
    emit_samples(&mut o, &samples, &expected);
    o.int(
        "stream_cycles",
        seq.iter().map(|&i| oracle.cycles[&reqs[i]]).sum(),
    )
    .int("memo_misses", memo_misses(&oracle.svc));
    // `ExecService::run_one` on the same stream, in process and warm;
    // `sim_mips` is the median over passes.
    oracle.run_one_us.clear();
    let mut mips = Vec::new();
    for _ in 0..RUN_ONE_PASSES {
        oracle.run_one_s = 0.0;
        oracle.insns = 0;
        for &idx in seq {
            oracle.run(reqs[idx]);
        }
        mips.push(oracle.insns as f64 / oracle.run_one_s / 1e6);
    }
    o.nums("run_one_us", oracle.run_one_us.iter().copied())
        .num("sim_mips", median(&mut mips));
    Ok(o)
}

pub fn run_closed_hot(args: &Args, out: &mut Obj) -> Result<(), String> {
    let reqs = hot_requests();
    let mut draw = Draw::new(args.seed, 2);
    let mut seq = Vec::new();
    for _ in 0..HOT_ROUNDS {
        let mut round: Vec<usize> = (0..reqs.len()).collect();
        draw.shuffle(&mut round);
        seq.extend(round);
    }

    let mut phases = Vec::new();
    if args.trace {
        phases.push(hot_phase(&reqs, &seq, false, args.seconds / 2.0)?);
        phases.push(hot_phase(&reqs, &seq, true, args.seconds / 2.0)?);
    } else {
        phases.push(hot_phase(&reqs, &seq, false, args.seconds)?);
    }
    out.int("stream_len", seq.len() as u64);
    finish_edge_workload(out, phases, &reqs, &HOT_SPECS, 20, args.trace);
    Ok(())
}

/// Shared tail of both edge workloads: counts over the distinct
/// requests, the Figure-16 error of the workload's kernels and the layer
/// probes.
fn finish_edge_workload(
    out: &mut Obj,
    phases: Vec<Obj>,
    distinct: &[RunRequest],
    fig_specs: &[KernelSpec],
    construct_reps: usize,
    traced: bool,
) {
    let mut oracle = Oracle::new();
    for &req in distinct {
        oracle.run(req);
    }
    out.obj("counts", oracle.counts.emit());
    let (geos, err) = fig16_error(fig_specs);
    out.nums("geomeans", geos)
        .num("paper_error_pct", err)
        .obj("layers", layer_probe(distinct, construct_reps, traced))
        .objs("phases", phases);
}

/// A fixed spread of cold kernels (each kind at three scales) whose
/// Figure-16 error `edge_open_cold` reports; seed-independent, so the
/// value is the same on every run.
const COLD_FIGURE_SPECS: [KernelSpec; 15] = [
    KernelSpec::MemcpyUnaligned { len: 256 },
    KernelSpec::MemcpyUnaligned { len: 1024 },
    KernelSpec::MemcpyUnaligned { len: 4096 },
    KernelSpec::PackedStructSum { count: 64 },
    KernelSpec::PackedStructSum { count: 256 },
    KernelSpec::PackedStructSum { count: 1024 },
    KernelSpec::MisalignedStack { iterations: 64 },
    KernelSpec::MisalignedStack { iterations: 256 },
    KernelSpec::MisalignedStack { iterations: 1024 },
    KernelSpec::LinkedListChase { count: 64 },
    KernelSpec::LinkedListChase { count: 256 },
    KernelSpec::LinkedListChase { count: 1024 },
    KernelSpec::PhaseChangeSum {
        aligned: 64,
        misaligned: 64,
    },
    KernelSpec::PhaseChangeSum {
        aligned: 256,
        misaligned: 256,
    },
    KernelSpec::PhaseChangeSum {
        aligned: 1024,
        misaligned: 1024,
    },
];

/// Parameter strata per (kind, strategy) pair in one rung.
const STRATA: usize = RUNG_REQUESTS / 25;

/// Draws one rung of cold requests. Kind, strategy and scale parameter
/// are stratified — every rung holds each (kind, strategy) pair equally
/// often, with parameters spread evenly over a wide range and jittered by
/// the seed — so rungs differ in their exact contexts, not in their cost
/// mix. Tenants and the order are drawn freely.
fn cold_rung(d: &mut Draw) -> Vec<(RunRequest, u32)> {
    let mut out: Vec<(RunRequest, u32)> = (0..RUNG_REQUESTS)
        .map(|i| {
            let (kind, strategy, stratum) = (i % 5, (i / 5) % 5, (i / 25) % STRATA);
            // A value in stratum `stratum` of `lo..=hi`.
            let mut param = |lo: u32, hi: u32| {
                let width = (hi - lo + 1) / STRATA as u32;
                lo + stratum as u32 * width + d.range(0, width - 1)
            };
            let spec = match kind {
                0 => KernelSpec::MemcpyUnaligned {
                    len: 4 * param(4, 2047),
                },
                1 => KernelSpec::PackedStructSum {
                    count: param(4, 2047),
                },
                2 => KernelSpec::MisalignedStack {
                    iterations: param(4, 2047),
                },
                3 => KernelSpec::LinkedListChase {
                    count: param(4, 2047),
                },
                _ => KernelSpec::PhaseChangeSum {
                    aligned: param(4, 1023),
                    misaligned: d.range(4, 1023),
                },
            };
            let tenant = 1 + d.range(0, TENANTS - 1);
            (RunRequest::new(spec, MdaStrategy::ALL[strategy]), tenant)
        })
        .collect();
    d.shuffle(&mut out);
    out
}

/// The open-loop schedule of one phase: every request with its rung,
/// due offset and tenant.
struct Plan {
    reqs: Vec<RunRequest>,
    tenant: Vec<u32>,
    rung: Vec<usize>,
    due: Vec<Duration>,
}

fn cold_plan(seed: u64, salt: u64, seconds: f64) -> Plan {
    let pass: Duration = LADDER
        .iter()
        .map(|&rate| Duration::from_secs_f64(RUNG_REQUESTS as f64 / rate) + RUNG_GAP)
        .sum();
    let passes = ((seconds / pass.as_secs_f64()) as usize).max(1);
    let mut d = Draw::new(seed, salt);
    let mut plan = Plan {
        reqs: Vec::new(),
        tenant: Vec::new(),
        rung: Vec::new(),
        due: Vec::new(),
    };
    let mut rung_start = Duration::ZERO;
    for _ in 0..passes {
        for (r, &rate) in LADDER.iter().enumerate() {
            for (k, (req, tenant)) in cold_rung(&mut d).into_iter().enumerate() {
                plan.reqs.push(req);
                plan.tenant.push(tenant);
                plan.rung.push(r);
                plan.due
                    .push(rung_start + Duration::from_secs_f64(k as f64 / rate));
            }
            rung_start += Duration::from_secs_f64(RUNG_REQUESTS as f64 / rate) + RUNG_GAP;
        }
    }
    plan
}

/// One open-loop ladder phase on a fresh edge: a writer thread sends
/// pre-encoded frames on the schedule, a reader thread collects replies.
fn cold_phase(plan: &Plan, traced: bool) -> Result<Obj, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, t0, start) = start_edge(traced)?;
        let frames: Vec<Vec<u8>> = (0..plan.reqs.len())
            .map(|i| wire::encode_run(i as u64, plan.tenant[i], LIMIT_MS, &plan.reqs[i]))
            .collect();
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        setup_s.push(secs(t.elapsed()));
        if let Some((s, st, _, _, _)) = kept.replace((server, stream, frames, t0, start)) {
            drop(st);
            EdgeServer::shutdown(s);
        }
    }
    let (server, stream, frames, base, start) = kept.expect("one set-up ran");
    let rss_before = common::status_kb("VmRSS");
    let n = frames.len();
    let replies: Mutex<Vec<(f64, u32, u64)>> = Mutex::new(vec![(-1.0, NO_REPLY, 0); n]);
    let answered = AtomicUsize::new(0);
    let duplicates = AtomicUsize::new(0);
    let mut reader_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer_half = stream.try_clone().map_err(|e| e.to_string())?;
    // The schedule starts shortly after the threads are up.
    let t_start = Instant::now() + Duration::from_millis(20);
    let mut send_us = vec![0.0; n];
    let collecting_done = AtomicBool::new(false);
    let ref_spans = Mutex::new(RequestSpans::default());
    std::thread::scope(|s| {
        if traced {
            s.spawn(|| {
                while !collecting_done.load(Ordering::SeqCst) {
                    std::thread::sleep(SPAN_POLL);
                    if let Some(rec) = server.service().span_snapshot() {
                        ref_spans.lock().expect("span lock").absorb(&rec);
                    }
                }
            });
        }
        s.spawn(|| {
            while let Ok(frame) = wire::read_frame(&mut reader_half) {
                let recv = us(base.elapsed());
                let Some((id, status, outcome)) = wire::decode_reply(&frame) else {
                    continue;
                };
                let mut r = replies.lock().expect("reply lock");
                match r.get_mut(id as usize) {
                    Some(slot) if slot.1 == NO_REPLY => {
                        *slot = (
                            recv,
                            status.code(),
                            outcome.as_ref().map_or(0, common::digest_outcome),
                        );
                        if answered.fetch_add(1, Ordering::SeqCst) + 1 == n {
                            break;
                        }
                    }
                    _ => {
                        duplicates.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        });
        for (i, frame) in frames.iter().enumerate() {
            let due = t_start + plan.due[i];
            // The layer budget is read at the reference rate: span
            // collection stops in the gap after the first pass's reference
            // rung, once its replies are in.
            if i > 0
                && plan.rung[i - 1] == REF_RUNG
                && plan.rung[i] != REF_RUNG
                && !collecting_done.load(Ordering::SeqCst)
            {
                std::thread::sleep((due - RUNG_GAP / 4).saturating_duration_since(Instant::now()));
                collecting_done.store(true, Ordering::SeqCst);
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            send_us[i] = us(base.elapsed());
            if writer_half.write_all(frame).is_err() {
                break;
            }
        }
        collecting_done.store(true, Ordering::SeqCst);
        let drain_until = Instant::now() + DRAIN;
        while answered.load(Ordering::SeqCst) < n && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Unblocks the reader if replies are missing.
        let _ = stream.shutdown(Shutdown::Both);
    });
    let peak_kb = common::status_kb("VmHWM");
    let due0 = us(t_start - base);
    let replies = replies.into_inner().expect("reply lock");
    let samples: Vec<Sample> = (0..n)
        .map(|i| Sample {
            idx: i,
            due_us: due0 + us(plan.due[i]),
            send_us: send_us[i],
            recv_us: replies[i].0,
            status: replies[i].1,
            digest: replies[i].2,
        })
        .collect();
    let mut o = Obj::new();
    o.nums("setup_s", setup_s)
        .num("epoch_tolerance_us", us(start))
        .int("peak_rss_kb", peak_kb)
        .int("rss_before_kb", rss_before)
        .int("duplicates", duplicates.load(Ordering::SeqCst) as u64)
        .nums("rung", plan.rung.iter().map(|&r| r as f64));
    let ref_spans = traced.then(|| ref_spans.into_inner().expect("span lock"));
    finish_edge(server, vec![], ref_spans, &mut o)?;
    drop(stream);

    let mut oracle = Oracle::new();
    for &req in &plan.reqs {
        oracle.run(req);
    }
    let expected: Vec<u64> = plan.reqs.iter().map(|r| oracle.digest[r]).collect();
    emit_samples(&mut o, &samples, &expected);
    o.int(
        "stream_cycles",
        plan.reqs.iter().map(|r| oracle.cycles[r]).sum(),
    )
    .int("memo_misses", memo_misses(&oracle.svc));
    let contexts: HashSet<_> = samples
        .iter()
        .filter(|s| s.status == EdgeStatus::Ok.code())
        .map(|s| plan.reqs[s.idx].translation_context())
        .collect();
    o.int("contexts_built", contexts.len() as u64)
        .nums("run_one_us", oracle.run_one_us.iter().copied())
        .num("sim_mips", oracle.insns as f64 / oracle.run_one_s / 1e6);
    Ok(o)
}

pub fn run_open_cold(args: &Args, out: &mut Obj) -> Result<(), String> {
    let plans = if args.trace {
        vec![
            (cold_plan(args.seed, 3, args.seconds / 2.0), false),
            (cold_plan(args.seed, 4, args.seconds / 2.0), true),
        ]
    } else {
        vec![(cold_plan(args.seed, 3, args.seconds), false)]
    };
    let phases = plans
        .iter()
        .map(|(plan, traced)| cold_phase(plan, *traced))
        .collect::<Result<Vec<_>, _>>()?;
    let stream = &plans[0].0.reqs;
    out.nums("ladder", LADDER)
        .int("ref_rung", REF_RUNG as u64)
        .int("rung_requests", RUNG_REQUESTS as u64)
        .int("limit_ms", u64::from(LIMIT_MS));
    let sample = &stream[..stream.len().min(COLD_LAYER_SAMPLE)];
    finish_edge_workload(out, phases, sample, &COLD_FIGURE_SPECS, 1, args.trace);
    Ok(())
}
