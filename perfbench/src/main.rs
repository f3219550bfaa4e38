//! `perfbench`: one seeded run of one workload across the four schemes
//! (`qsense`, `qsbr`, `hp`, `he`), 2 worker threads each.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace-out <file>] [--rev <id>]
//! ```
//!
//! Without `--trace-out` the run is untraced: it visits the four schemes in
//! rounds, prints one line per scheme and, last, the end-to-end metrics as a
//! JSON object. With `--trace-out` it first times the guard layer in
//! isolation, then runs each cell untraced and traced, and writes the spans
//! and counters to the file for `spans.py` to reduce; its last line is the
//! correctness summary. Either way a failed correctness check makes it exit 1.

mod cell;
mod hist;
mod inputs;
mod isolate;
mod trace;
mod workloads;

use cell::{CellResult, Plan};
use hist::FineHist;
use reclaim_core::{Smr, SmrConfig, StatsSnapshot};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Structure, Workload, SCHEMES, WORKERS};

/// Rounds of the untraced run; every end-to-end figure is a median over them.
const ROUNDS: usize = 7;
/// Rounds of the traced run (each runs every cell twice).
const TRACE_ROUNDS: usize = 2;
/// Share of a cell's time slot kept for set-up, thread start, the final
/// drain and the checks; the workload's warm-up and the measured phase get
/// the rest.
const RESERVE_SHARE: f64 = 0.15;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace_out: Option<String>,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace_out, mut rev) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace-out" => trace_out = Some(value),
            "--rev" => rev = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace_out,
        rev: rev.unwrap_or_else(|| "unknown".into()),
    })
}

fn make_plan<'a>(
    args: &'a Args,
    slot: f64,
    traced: bool,
    origin: Instant,
    tag_base: u64,
) -> Plan<'a> {
    let w = args.workload;
    let measured_s = slot * (1.0 - RESERVE_SHARE) - w.warmup.as_secs_f64();
    let mut measure = Duration::from_secs_f64(measured_s.max(0.05));
    if let Some(stall) = w.stall {
        // Whole stall cycles only, so every cell sees the same mix of
        // stalled and unstalled time.
        let cycles = (measure.as_nanos() / stall.period.as_nanos()).max(1) as u32;
        measure = stall.period * cycles;
    }
    Plan {
        workload: w,
        seed: args.seed,
        warmup: w.warmup,
        measure,
        config: workloads::smr_config(w.structure, traced),
        traced,
        origin,
        tag_base,
    }
}

fn run_cell_with<S: Smr>(make: fn(SmrConfig) -> Arc<S>, plan: &Plan) -> CellResult {
    match plan.workload.structure {
        Structure::List => cell::run::<S, lockfree_ds::HarrisMichaelList<u64, S>>(make, plan),
        Structure::SkipList => cell::run::<S, lockfree_ds::LockFreeSkipList<u64, S>>(make, plan),
    }
}

fn run_cell(scheme: &str, plan: &Plan) -> CellResult {
    match scheme {
        "qsense" => run_cell_with(qsense::QSense::new, plan),
        "qsbr" => run_cell_with(qsbr::Qsbr::new, plan),
        "hp" => run_cell_with(hazard::Hazard::new, plan),
        "he" => run_cell_with(he::He::new, plan),
        _ => unreachable!("unknown scheme {scheme}"),
    }
}

fn guard_costs(scheme: &str, config: SmrConfig) -> isolate::GuardCosts {
    match scheme {
        "qsense" => isolate::guard_costs(qsense::QSense::new, config),
        "qsbr" => isolate::guard_costs(qsbr::Qsbr::new, config),
        "hp" => isolate::guard_costs(hazard::Hazard::new, config),
        "he" => isolate::guard_costs(he::He::new, config),
        _ => unreachable!("unknown scheme {scheme}"),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The run envelope: everything needed to tell two runs' conditions apart.
fn envelope(args: &Args, rounds: usize, traced: bool) -> String {
    let w = args.workload;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut params = format!(
        "{{\"structure\": \"{:?}\", \"key_range\": {}, \"prefill\": {}, \"insert_pct\": {}, \"remove_pct\": {}",
        w.structure, w.key_range, w.prefill, w.mix.insert_pct, w.mix.remove_pct
    );
    if let Some(ol) = w.open_loop {
        let _ = write!(
            params,
            ", \"loop\": \"open\", \"rate_per_s\": {}, \"lease_slots\": {}, \"ops_per_session\": {}",
            ol.rate_per_s, ol.lease_slots, ol.ops_per_session
        );
    } else {
        params.push_str(", \"loop\": \"closed\"");
    }
    if let Some(s) = w.stall {
        let _ = write!(
            params,
            ", \"stall_victim\": {}, \"stall_period_ms\": {}, \"stall_delay_ms\": {}",
            s.victim,
            s.period.as_millis(),
            s.delay.as_millis()
        );
    }
    params.push('}');
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"rev\": \"{}\", \
         \"host_cpus\": {cpus}, \"workers\": {WORKERS}, \"threads_exceed_cores\": {}, \
         \"rounds\": {rounds}, \"schemes\": [\"qsense\", \"qsbr\", \"hp\", \"he\"], \
         \"workload_params\": {params}, \"config\": {}}}",
        w.name,
        args.seed,
        args.seconds,
        traced,
        args.rev,
        WORKERS > cpus,
        workloads::config_json(&workloads::smr_config(w.structure, false)),
    )
}

#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn absorb(&mut self, scheme: &str, res: &CellResult) {
        self.attempted += res.attempted;
        self.failed += res.failed;
        for why in &res.failures {
            eprintln!("CHECK FAILED [{scheme}]: {why}");
        }
    }

    fn exit_code(&self) -> ExitCode {
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn untraced(args: &Args) -> ExitCode {
    println!("envelope {}", envelope(args, ROUNDS, false));
    let slot = args.seconds / (ROUNDS * SCHEMES.len()) as f64;
    let origin = Instant::now();
    let mut gate = Gate::default();
    let mut per_scheme: Vec<[Vec<f64>; 4]> = SCHEMES.iter().map(|_| Default::default()).collect();
    let mut setup_s = Vec::new();
    for round in 0..ROUNDS {
        let mut setup = 0.0;
        for (i, scheme) in SCHEMES.iter().enumerate() {
            let plan = make_plan(
                args,
                slot,
                false,
                origin,
                ((round * SCHEMES.len() + i) as u64) << 4,
            );
            let res = run_cell(scheme, &plan);
            gate.absorb(scheme, &res);
            setup += res.setup_ns as f64 / 1e9;
            let row = [
                res.ops_per_s(),
                res.latency.quantile(0.50) / 1e3,
                res.latency.quantile(0.99) / 1e3,
                res.limbo_bytes / 1024.0,
            ];
            println!(
                "cell round={round} scheme={scheme} ops_per_s={:.0} p50_us={:.3} p99_us={:.3} \
                 limbo_kib={:.1} samples={} setup_ms={:.3} switches={}/{}",
                row[0],
                row[1],
                row[2],
                row[3],
                res.latency.count(),
                res.setup_ns as f64 / 1e6,
                res.stats_end.fallback_switches,
                res.stats_end.fast_path_switches
            );
            for (series, value) in per_scheme[i].iter_mut().zip(row) {
                series.push(value);
            }
        }
        setup_s.push(setup);
    }
    let mut metrics = String::from("{");
    for (scheme, [ops, p50, p99, limbo]) in SCHEMES.iter().zip(per_scheme) {
        metric(
            &mut metrics,
            &format!("ops_per_s.{scheme}"),
            median(ops),
            "1/s",
        );
        metric(&mut metrics, &format!("p99_us.{scheme}"), median(p99), "us");
        if matches!(*scheme, "qsense" | "hp") {
            metric(&mut metrics, &format!("p50_us.{scheme}"), median(p50), "us");
        }
        metric(
            &mut metrics,
            &format!("limbo_kib.{scheme}"),
            median(limbo),
            "KiB",
        );
    }
    metric(&mut metrics, "setup_s", median(setup_s), "s");
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed
    );
    gate.exit_code()
}

/// Counters one scheme accumulates over the traced run.
#[derive(Default)]
struct Accum {
    untraced_ops: u64,
    untraced_ns: u64,
    untraced_busy_ns: u64,
    /// Worker ops over the whole cell, the base of `delta`.
    worker_ops: u64,
    traced_ops: u64,
    traced_ns: u64,
    traced_busy_ns: u64,
    delta: StatsSnapshot,
    /// Cumulative through the end of each measured phase, summed.
    at_end: StatsSnapshot,
    checkouts: u64,
    lease_waits: u64,
    delay_p99_us: Vec<f64>,
}

fn add_delta(acc: &mut StatsSnapshot, a: &StatsSnapshot, b: &StatsSnapshot) {
    acc.retired += b.retired - a.retired;
    acc.scans += b.scans - a.scans;
    acc.scan_walks += b.scan_walks - a.scan_walks;
    acc.scan_wholesale += b.scan_wholesale - a.scan_wholesale;
    acc.scan_skips += b.scan_skips - a.scan_skips;
    acc.shard_walks += b.shard_walks - a.shard_walks;
    acc.shard_skips += b.shard_skips - a.shard_skips;
    acc.quiescent_states += b.quiescent_states - a.quiescent_states;
    acc.traversal_fences += b.traversal_fences - a.traversal_fences;
}

fn traced(args: &Args, path: &str) -> std::io::Result<ExitCode> {
    let env = envelope(args, TRACE_ROUNDS, true);
    println!("envelope {env}");
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "H\t{env}")?;

    // Guard-layer isolation on one thread, before any cell runs.
    let iso_config = workloads::smr_config(Structure::List, false);
    for scheme in SCHEMES {
        let costs = guard_costs(scheme, iso_config.clone());
        trace::write_counter(&mut out, scheme, "iso.bracket_ns", costs.bracket_ns)?;
        trace::write_counter(&mut out, scheme, "iso.protect_ns", costs.protect_ns)?;
        trace::write_counter(&mut out, scheme, "iso.retire_ns", costs.retire_ns)?;
    }
    trace::write_counter(&mut out, "all", "alloc.node_ns", isolate::alloc_node_ns())?;

    let slot = args.seconds * 0.9 / (TRACE_ROUNDS * SCHEMES.len() * 2) as f64;
    let origin = Instant::now();
    let mut gate = Gate::default();
    let mut acc: Vec<Accum> = SCHEMES.iter().map(|_| Accum::default()).collect();
    let mut lag = FineHist::new();
    for round in 0..TRACE_ROUNDS {
        for (i, scheme) in SCHEMES.iter().enumerate() {
            let tag = ((round * SCHEMES.len() + i) as u64) << 5;
            let a = &mut acc[i];
            let plain = run_cell(scheme, &make_plan(args, slot, false, origin, tag));
            gate.absorb(scheme, &plain);
            a.untraced_ops += plain.measured_ops;
            a.untraced_ns += plain.measured_ns;
            a.untraced_busy_ns += plain.busy_ns;
            a.worker_ops += plain.attempted;
            add_delta(&mut a.delta, &plain.stats_setup, &plain.stats_done);
            a.at_end.retired += plain.stats_end.retired;
            a.at_end.freed += plain.stats_end.freed;
            a.at_end.fallback_switches += plain.stats_end.fallback_switches;
            a.at_end.fast_path_switches += plain.stats_end.fast_path_switches;
            a.checkouts += plain.checkouts;
            a.lease_waits += plain.lease_waits;
            lag.merge(&plain.lag);

            let spanned = run_cell(scheme, &make_plan(args, slot, true, origin, tag | 1 << 4));
            gate.absorb(scheme, &spanned);
            a.traced_ops += spanned.measured_ops;
            a.traced_ns += spanned.measured_ns;
            a.traced_busy_ns += spanned.busy_ns;
            a.delay_p99_us.push(spanned.delay_p99_us);
            trace::write_spans(&mut out, scheme, &spanned.spans)?;
        }
    }
    for (scheme, a) in SCHEMES.iter().zip(acc) {
        let d = &a.delta;
        let counters: [(&str, f64); 24] = [
            ("untraced.ops", a.untraced_ops as f64),
            ("untraced.ns", a.untraced_ns as f64),
            ("untraced.busy_ns", a.untraced_busy_ns as f64),
            ("traced.ops", a.traced_ops as f64),
            ("traced.ns", a.traced_ns as f64),
            ("traced.busy_ns", a.traced_busy_ns as f64),
            ("d.ops", a.worker_ops as f64),
            ("d.retired", d.retired as f64),
            ("d.scans", d.scans as f64),
            ("d.scan_walks", d.scan_walks as f64),
            ("d.scan_wholesale", d.scan_wholesale as f64),
            ("d.scan_skips", d.scan_skips as f64),
            ("d.shard_walks", d.shard_walks as f64),
            ("d.shard_skips", d.shard_skips as f64),
            ("d.quiescent_states", d.quiescent_states as f64),
            ("d.traversal_fences", d.traversal_fences as f64),
            ("end.retired", a.at_end.retired as f64),
            ("end.freed", a.at_end.freed as f64),
            ("end.fallback_switches", a.at_end.fallback_switches as f64),
            ("end.fast_path_switches", a.at_end.fast_path_switches as f64),
            ("lease.checkouts", a.checkouts as f64),
            ("lease.waits", a.lease_waits as f64),
            ("telemetry.delay_p99_us", median(a.delay_p99_us)),
            ("rounds", TRACE_ROUNDS as f64),
        ];
        for (name, value) in counters {
            trace::write_counter(&mut out, scheme, name, value)?;
        }
    }
    trace::write_counter(&mut out, "all", "gen.lag_p50_us", lag.quantile(0.50) / 1e3)?;
    trace::write_counter(&mut out, "all", "gen.lag_p99_us", lag.quantile(0.99) / 1e3)?;
    trace::write_counter(
        &mut out,
        "all",
        "open_loop",
        f64::from(u8::from(args.workload.open_loop.is_some())),
    )?;
    out.flush()?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed
    );
    Ok(gate.exit_code())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.trace_out {
        None => untraced(&args),
        Some(path) => traced(&args, path).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            ExitCode::FAILURE
        }),
    }
}
