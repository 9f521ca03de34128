//! Measurement core of the DigitalBridge-RS benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, sets up, measures for
//! the given time, checks every output against its oracle and prints one
//! JSON document of raw samples and counts. `run.py` builds this binary,
//! runs it and reduces that document to the reported metrics.
//!
//! Every number is taken from outside the crates: by timing calls into
//! their public functions, from `RunReport`/`Stats` counts, from the span
//! recorders and from the service's metrics registry.

mod common;
mod edge;
mod sweep;
mod wire;

use common::Obj;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Obj::new();
    out.str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .flag("trace", args.trace)
        .obj("host", common::host_context());
    let result = match args.workload.as_str() {
        "spec_sweep" => sweep::run(&args, &mut out),
        "edge_closed_hot" => edge::run_closed_hot(&args, &mut out),
        "edge_open_cold" => edge::run_open_cold(&args, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", out.finish());
}
