//! Pieces every workload shares: seeded draws, the JSON emitter, process
//! memory, the host's thread-scaling ceiling, outcome digests and span
//! self-time accounting.

use bridge_dbt::RunReport;
use bridge_serve::edge::RunOutcome;
use bridge_serve::GuestResult;
use bridge_trace::{SpanKind, SpanRecord, SpanRecorder};
use bridge_workloads::rng::SplitMix64;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// Seeded draws for input generation.
pub struct Draw(SplitMix64);

impl Draw {
    /// A stream for `seed`, separated per purpose by `salt`.
    pub fn new(seed: u64, salt: u64) -> Draw {
        Draw(SplitMix64::new(
            seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.0.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.index(i + 1));
        }
    }
}

/// A minimal JSON object writer (the output is one document of numbers,
/// number arrays, strings and nested objects).
pub struct Obj {
    buf: String,
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Obj {
        self.key(k);
        push_num(&mut self.buf, v);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn flag(&mut self, k: &str, v: bool) -> &mut Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' | '\\' => {
                    self.buf.push('\\');
                    self.buf.push(c);
                }
                c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    /// Embeds an already-serialized JSON value verbatim.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Obj {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn nums(&mut self, k: &str, vs: impl IntoIterator<Item = f64>) -> &mut Obj {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_num(&mut self.buf, v);
        }
        self.buf.push(']');
        self
    }

    pub fn objs(&mut self, k: &str, os: Vec<Obj>) -> &mut Obj {
        self.key(k);
        self.buf.push('[');
        for (i, o) in os.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&o.finish());
        }
        self.buf.push(']');
        self
    }

    pub fn obj(&mut self, k: &str, o: Obj) -> &mut Obj {
        self.raw(k, &o.finish())
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn push_num(buf: &mut String, v: f64) {
    if v.is_finite() {
        buf.push_str(&format!("{v}"));
    } else {
        buf.push_str("null");
    }
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A `/proc/self/status` memory field in KiB (`VmHWM` is the peak
/// resident set, `VmRSS` the current one); 0 where unavailable.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Host context for reading parallel numbers: the CPU count the process
/// may use, and the measured speed-up of two pure-ALU spin threads over
/// one (the median of three trials). Context only, never gated.
pub fn host_context() -> Obj {
    fn spin(iters: u64) -> u64 {
        let mut x = std::hint::black_box(0x1234_5678_u64);
        for i in 0..iters {
            x = x.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9);
        }
        std::hint::black_box(x)
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Calibrate to ~40 ms of single-thread work.
    let mut iters = 1 << 20;
    loop {
        let t = Instant::now();
        spin(iters);
        if t.elapsed() > Duration::from_millis(40) || iters > 1 << 34 {
            break;
        }
        iters *= 2;
    }
    let mut trials: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            spin(iters);
            let one = secs(t.elapsed());
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(iters));
                let b = s.spawn(|| spin(iters));
                a.join().expect("spin thread");
                b.join().expect("spin thread");
            });
            2.0 * one / secs(t.elapsed())
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    let mut o = Obj::new();
    o.int("nproc", nproc as u64).num("scaling_2t", trials[1]);
    o
}

/// The `RunReport` counts every workload reports, by name.
const COUNT_NAMES: [&str; 12] = [
    "cycles",
    "insns",
    "unaligned_traps",
    "icache_misses",
    "dcache_misses",
    "blocks_translated",
    "guest_insns_interpreted",
    "os_fixups",
    "patched_sites",
    "monitor_exits",
    "hint_hits",
    "hint_misses",
];

/// Sums of [`COUNT_NAMES`] over runs.
#[derive(Default, Clone, Copy, PartialEq)]
pub struct Counts([u64; 12]);

impl Counts {
    pub fn add(&mut self, r: &RunReport) {
        let v = [
            r.stats.cycles,
            r.stats.insns,
            r.stats.unaligned_traps,
            r.stats.icache_misses,
            r.stats.dcache_misses,
            r.blocks_translated,
            r.guest_insns_interpreted,
            r.os_fixups,
            r.patched_sites,
            r.monitor_exits,
            r.hint_hits,
            r.hint_misses,
        ];
        for (c, x) in self.0.iter_mut().zip(v) {
            *c += x;
        }
    }

    pub fn emit(&self) -> Obj {
        let mut o = Obj::new();
        for (name, v) in COUNT_NAMES.into_iter().zip(self.0) {
            o.int(name, v);
        }
        o
    }
}

/// Digest of an executed run's byte-identity witnesses: cycles, report
/// text and observed memory. Equal digests are the edge oracle.
pub fn digest(cycles: u64, report_text: &str, memory: &[(u32, Vec<u8>)]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cycles.hash(&mut h);
    report_text.hash(&mut h);
    memory.hash(&mut h);
    h.finish()
}

pub fn digest_outcome(o: &RunOutcome) -> u64 {
    digest(o.cycles, &o.report_text, &o.memory)
}

pub fn digest_result(r: &GuestResult) -> u64 {
    digest(r.report.stats.cycles, &r.report.to_string(), &r.memory)
}

/// Wall-clock self time (µs) of an engine's spans by kind, in the order
/// translate, execute, trap fixup, run (interpretation and dispatch) and
/// image restore: each span's duration minus the part its direct
/// children cover.
pub fn engine_self_us(rec: &SpanRecorder) -> [f64; 5] {
    let dur = |s: &SpanRecord| match (s.wall_start_us, s.wall_end_us) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a) as f64),
        _ => None,
    };
    let mut child_sum: HashMap<u64, f64> = HashMap::new();
    for s in rec.spans() {
        if let Some(d) = dur(s) {
            *child_sum.entry(s.parent).or_default() += d;
        }
    }
    let mut out = [0.0; 5];
    for s in rec.spans() {
        let slot = match s.kind {
            SpanKind::Translate => 0,
            SpanKind::Execute => 1,
            SpanKind::TrapFixup => 2,
            SpanKind::Run => 3,
            SpanKind::ImageRestore => 4,
            _ => continue,
        };
        if let Some(d) = dur(s) {
            out[slot] += (d - child_sum.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        }
    }
    out
}

/// The serve-layer request and dispatch spans of an edge run, gathered
/// from one or more snapshots of the service's span ring (adopted engine
/// subtrees can overwrite the ring within milliseconds).
#[derive(Default)]
pub struct RequestSpans(HashMap<u64, SpanRecord>);

impl RequestSpans {
    pub fn absorb(&mut self, rec: &SpanRecorder) {
        for s in rec.spans() {
            if matches!(s.kind, SpanKind::Request | SpanKind::Dispatch) {
                self.0.insert(s.id, *s);
            }
        }
    }

    /// One object of arrays: each request's start and end and the start
    /// and end of the dispatch beneath it (µs since the service's span
    /// epoch; `-1` where the request was never dispatched, or its
    /// dispatch span was overwritten before a snapshot).
    pub fn emit(&self) -> Obj {
        let wall = |s: &SpanRecord| Some((s.wall_start_us? as f64, s.wall_end_us? as f64));
        let dispatch: HashMap<u64, (f64, f64)> = self
            .0
            .values()
            .filter(|s| s.kind == SpanKind::Dispatch)
            .filter_map(|s| Some((s.parent, wall(s)?)))
            .collect();
        let mut cols: [Vec<f64>; 4] = Default::default();
        for s in self.0.values().filter(|s| s.kind == SpanKind::Request) {
            let Some((a, b)) = wall(s) else { continue };
            let (da, db) = dispatch.get(&s.id).copied().unwrap_or((-1.0, -1.0));
            for (col, v) in cols.iter_mut().zip([a, b, da, db]) {
                col.push(v);
            }
        }
        let [start, end, dispatch_start, dispatch_end] = cols;
        let mut o = Obj::new();
        o.nums("start_us", start)
            .nums("end_us", end)
            .nums("dispatch_start_us", dispatch_start)
            .nums("dispatch_end_us", dispatch_end);
        o
    }
}

/// Median of a non-empty sample (upper median for even sizes).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}
