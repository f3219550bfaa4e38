//! One cell: one scheme on one workload, set up, warmed, measured, drained
//! and checked. The library is driven only through its public API — the
//! set structures, `Smr::register`, `LeasePool` and `SmrHandle::flush` — and
//! every timed call is bracketed by the benchmark itself.

use crate::hist::FineHist;
use crate::inputs::{self, Op, OpKind};
use crate::trace::{Span, Tracer};
use crate::workloads::{Workload, WORKERS};
use lockfree_ds::{HarrisMichaelList, LockFreeSkipList};
use reclaim_core::{Guard, LeasePolicy, LeasePool, Smr, SmrConfig, SmrHandle, StatsSnapshot};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// A set structure the benchmark can drive, generic over the scheme.
pub trait SetDs<S: Smr>: Send + Sync + Sized + 'static {
    /// An empty set reclaiming through `scheme`.
    fn build(scheme: Arc<S>) -> Self;
    /// Membership test.
    fn contains(&self, key: u64, h: &mut S::Handle) -> bool;
    /// Insert; false if present.
    fn insert(&self, key: u64, h: &mut S::Handle) -> bool;
    /// Remove; false if absent.
    fn remove(&self, key: u64, h: &mut S::Handle) -> bool;
    /// Element count (quiescent only).
    fn len(&self, h: &mut S::Handle) -> usize;
}

macro_rules! impl_set_ds {
    ($ds:ident) => {
        impl<S: Smr> SetDs<S> for $ds<u64, S> {
            fn build(scheme: Arc<S>) -> Self {
                $ds::new(scheme)
            }
            fn contains(&self, key: u64, h: &mut S::Handle) -> bool {
                $ds::contains(self, &key, h)
            }
            fn insert(&self, key: u64, h: &mut S::Handle) -> bool {
                $ds::insert(self, key, h)
            }
            fn remove(&self, key: u64, h: &mut S::Handle) -> bool {
                $ds::remove(self, &key, h)
            }
            fn len(&self, h: &mut S::Handle) -> usize {
                $ds::len(self, h)
            }
        }
    };
}

impl_set_ds!(HarrisMichaelList);
impl_set_ds!(LockFreeSkipList);

/// Closed-loop ops are traced one in this many.
const OP_STRIDE: u64 = 128;
/// Soak sessions are traced one in this many (with all their children).
const SESSION_STRIDE: usize = 16;
/// Limbo is sampled this often during the measured phase.
const LIMBO_INTERVAL: Duration = Duration::from_millis(2);
/// The final drain gives up after this long.
const DRAIN_DEADLINE: Duration = Duration::from_millis(500);

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// What a cell is asked to do.
pub struct Plan<'a> {
    /// Workload inputs.
    pub workload: &'a Workload,
    /// Input seed.
    pub seed: u64,
    /// Unmeasured lead-in.
    pub warmup: Duration,
    /// Measured phase.
    pub measure: Duration,
    /// Reclamation configuration.
    pub config: SmrConfig,
    /// Record spans.
    pub traced: bool,
    /// Trace time origin.
    pub origin: Instant,
    /// Makes span ids unique across the run's cells.
    pub tag_base: u64,
}

/// What a cell measured and checked.
#[derive(Default)]
pub struct CellResult {
    /// Scheme construction, structure construction, prefill, handle
    /// registration and lease-pool creation.
    pub setup_ns: u64,
    /// Set operations issued (warm-up included).
    pub attempted: u64,
    /// Operations counted as failed by the correctness gate.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Operations completed in the measured phase.
    pub measured_ops: u64,
    /// Length of the measured phase.
    pub measured_ns: u64,
    /// Per-call latency (closed loop) or latency from due time (soak), ns.
    pub latency: FineHist,
    /// Soak only: how late each measured session started, ns.
    pub lag: FineHist,
    /// Time workers spent inside measured set calls (closed loop) or
    /// measured sessions (soak), ns.
    pub busy_ns: u64,
    /// Trimmed mean of `limbo_bytes()` sampled during the measured phase
    /// (see [`trimmed_mean`]).
    pub limbo_bytes: f64,
    /// Scheme counters once set-up finished.
    pub stats_setup: StatsSnapshot,
    /// Scheme counters once every worker handle was flushed and dropped.
    /// Some counters (HP's fence count) are published only then, so
    /// per-op ratios use the window from `stats_setup` to here, over
    /// `attempted` ops.
    pub stats_done: StatsSnapshot,
    /// Scheme counters when the measured phase ended.
    pub stats_end: StatsSnapshot,
    /// Retire→free delay p99 from the library's telemetry, µs (0 when off).
    pub delay_p99_us: f64,
    /// Soak only: lease checkouts.
    pub checkouts: u64,
    /// Soak only: checkouts that found the pool empty.
    pub lease_waits: u64,
    /// Recorded spans (traced cells only).
    pub spans: Vec<Span>,
}

impl CellResult {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops.max(1);
        self.failures.push(why);
    }

    /// Completed operations per second in the measured phase.
    pub fn ops_per_s(&self) -> f64 {
        self.measured_ops as f64 / (self.measured_ns.max(1) as f64 / 1e9)
    }
}

#[derive(Default)]
struct WorkerOut {
    attempted: u64,
    measured_ops: u64,
    inserted: u64,
    removed: u64,
    sessions: u64,
    lease_failures: u64,
    checkouts: u64,
    lease_waits: u64,
    busy_ns: u64,
    last_end: Option<Instant>,
    latency: FineHist,
    lag: FineHist,
    spans: Vec<Span>,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn op_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Contains => "lockfree_ds.contains",
        OpKind::Insert => "lockfree_ds.insert",
        OpKind::Remove => "lockfree_ds.remove",
    }
}

#[inline]
fn apply<S: Smr, D: SetDs<S>>(ds: &D, op: Op, h: &mut S::Handle, out: &mut WorkerOut) {
    let ok = match op.kind {
        OpKind::Contains => ds.contains(op.key, h),
        OpKind::Insert => ds.insert(op.key, h),
        OpKind::Remove => ds.remove(op.key, h),
    };
    out.attempted += 1;
    match (op.kind, ok) {
        (OpKind::Insert, true) => out.inserted += 1,
        (OpKind::Remove, true) => out.removed += 1,
        _ => {}
    }
}

fn register<S: Smr>(scheme: &Arc<S>, tracer: &mut Tracer, parent: u64) -> S::Handle {
    let began = Instant::now();
    let handle = scheme.register();
    if tracer.enabled() {
        tracer.leaf("smr.register", parent, 0, began, Instant::now());
    }
    handle
}

fn flush<H: SmrHandle>(handle: &mut H, tracer: &mut Tracer) {
    let began = Instant::now();
    handle.flush();
    if tracer.enabled() {
        tracer.leaf("smr.flush", 0, 0, began, Instant::now());
    }
}

/// Sleeps until `t` (coarse; for the main thread, which times nothing
/// finer than the measured window).
fn sleep_until(t: Instant) {
    thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Sleeps (coarsely) then spins until `t`.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(1_500) {
            thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// `limbo_bytes()` sampled every [`LIMBO_INTERVAL`] until `until`.
fn sample_limbo<S: Smr>(scheme: &S, until: Instant) -> Vec<u64> {
    let mut samples = Vec::new();
    let mut next = Instant::now();
    loop {
        samples.push(scheme.stats().limbo_bytes());
        next += LIMBO_INTERVAL;
        if next >= until {
            sleep_until(until);
            return samples;
        }
        thread::sleep(next.saturating_duration_since(Instant::now()));
    }
}

/// The mean of `samples` without their highest and lowest 5%. It follows
/// limbo that grows and drains smoothly (a stall cycle, a leak) like the
/// plain mean, but drops the isolated spikes that appear whenever the host
/// deschedules a worker in the middle of an operation and so holds back
/// every grace period. Trimming deeper would cut into a stall cycle's ramp
/// and make the figure follow the ramp's slope.
fn trimmed_mean(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    let n = samples.len();
    let kept = &samples[n / 20..n - n / 20];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().map(|&b| b as f64).sum::<f64>() / kept.len() as f64
}

/// Runs one cell of scheme `S` on structure `D`.
pub fn run<S: Smr, D: SetDs<S>>(make: fn(SmrConfig) -> Arc<S>, plan: &Plan) -> CellResult {
    let w = plan.workload;
    let mut res = CellResult::default();
    // The benchmark's own inputs, generated before set-up is timed.
    let prefill = inputs::prefill_keys(plan.seed, w.key_range, w.prefill);
    let due = w
        .open_loop
        .map(|ol| inputs::arrivals(plan.seed, ol.rate_per_s, nanos(plan.warmup + plan.measure)))
        .unwrap_or_default();

    let mut tracer = Tracer::new(plan.origin, plan.tag_base, plan.traced);
    let setup_id = tracer.open();
    let setup_began = Instant::now();
    let scheme = make(plan.config.clone());
    let ds = D::build(Arc::clone(&scheme));
    let prefilled;
    {
        let mut h = register(&scheme, &mut tracer, setup_id);
        let began = Instant::now();
        prefilled = prefill.iter().filter(|&&k| ds.insert(k, &mut h)).count() as u64;
        tracer.leaf("setup.prefill", setup_id, 0, began, Instant::now());
    }
    let distinct = prefill.len() as u64;
    if prefilled != distinct {
        res.fail(
            distinct.abs_diff(prefilled),
            format!("prefill: {prefilled} of {distinct} distinct keys inserted"),
        );
    }
    let slots = w.open_loop.map_or(WORKERS, |ol| ol.lease_slots);
    let handles: Vec<S::Handle> = (0..slots)
        .map(|_| register(&scheme, &mut tracer, setup_id))
        .collect();
    let (pool, worker_handles) = match w.open_loop {
        Some(_) => (Some(LeasePool::new(handles, LeasePolicy::Wait)), Vec::new()),
        None => (None, handles),
    };
    let setup_ended = Instant::now();
    tracer.close(setup_id, "setup", 0, 0, setup_began, setup_ended);
    res.setup_ns = nanos(setup_ended - setup_began);
    res.stats_setup = scheme.stats();

    let phase = AtomicU8::new(WARMUP);
    let barrier = Barrier::new(WORKERS + 1);
    let tickets = AtomicUsize::new(0);
    let outs: Vec<WorkerOut> = thread::scope(|scope| {
        let (ds, phase, due, pool, barrier, tickets) =
            (&ds, &phase, &due, &pool, &barrier, &tickets);
        // Soak due times count from `start`, fixed before any worker runs.
        let start = Instant::now() + Duration::from_millis(1);
        let mut worker_handles = worker_handles.into_iter();
        let joins: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let handle = worker_handles.next();
                scope.spawn(move || {
                    let mut tracer =
                        Tracer::new(plan.origin, plan.tag_base + 1 + worker as u64, plan.traced);
                    barrier.wait();
                    let mut out = match (pool, handle) {
                        (Some(pool), _) => {
                            soak_worker(ds, pool, due, tickets, start, plan, &mut tracer)
                        }
                        (None, Some(mut h)) => {
                            let out = closed_worker(ds, &mut h, worker, phase, plan, &mut tracer);
                            flush(&mut h, &mut tracer);
                            out
                        }
                        (None, None) => unreachable!("closed loop gives every worker a handle"),
                    };
                    out.spans = tracer.take();
                    out
                })
            })
            .collect();
        barrier.wait();
        let measure_start = match pool {
            Some(_) => start + plan.warmup,
            None => Instant::now() + plan.warmup,
        };
        sleep_until(measure_start);
        phase.store(MEASURE, Ordering::Relaxed);
        res.limbo_bytes = trimmed_mean(sample_limbo(&*scheme, measure_start + plan.measure));
        phase.store(STOP, Ordering::Relaxed);
        let measure_end = Instant::now();
        res.stats_end = scheme.stats();
        res.delay_p99_us = scheme.telemetry().map_or(0.0, |t| {
            t.summary().reclaim_delay_us.percentile(0.99) as f64
        });
        let outs: Vec<WorkerOut> = joins
            .into_iter()
            .map(|j| j.join().expect("worker panicked"))
            .collect();
        // Closed loop: the window the main thread timed. Soak: until the
        // last session due inside the window completed, so a backlog that
        // outlives the window lengthens it.
        let end = match pool {
            Some(_) => outs
                .iter()
                .filter_map(|o| o.last_end)
                .max()
                .unwrap_or(measure_end)
                .max(measure_end),
            None => measure_end,
        };
        res.measured_ns = nanos(end - measure_start);
        outs
    });

    // End of cell: flush the leased handles, then release every worker
    // handle before the final checks.
    if let Some(pool) = pool {
        let mut leases: Vec<_> = (0..slots).filter_map(|_| pool.try_checkout()).collect();
        for lease in &mut leases {
            flush(&mut **lease, &mut tracer);
        }
        drop(leases);
        drop(pool);
    }
    res.stats_done = scheme.stats();
    let (mut inserted, mut removed, mut sessions, mut lease_failures) = (0, 0, 0, 0);
    for out in outs {
        res.attempted += out.attempted;
        res.measured_ops += out.measured_ops;
        res.busy_ns += out.busy_ns;
        res.checkouts += out.checkouts;
        res.lease_waits += out.lease_waits;
        res.latency.merge(&out.latency);
        res.lag.merge(&out.lag);
        res.spans.extend(out.spans);
        inserted += out.inserted;
        removed += out.removed;
        sessions += out.sessions;
        lease_failures += out.lease_failures;
    }
    if let Some(ol) = w.open_loop {
        let due = due.len() as u64;
        if sessions != due {
            res.fail(
                due.abs_diff(sessions) * ol.ops_per_session as u64,
                format!("soak: {sessions} of {due} sessions completed, {lease_failures} lease checkouts failed"),
            );
        }
    }
    check_final(
        &scheme,
        &ds,
        prefilled + inserted,
        removed,
        plan.config.quiescence_threshold,
        &mut res,
    );
    res.spans.extend(tracer.take());
    res
}

fn closed_worker<S: Smr, D: SetDs<S>>(
    ds: &D,
    h: &mut S::Handle,
    worker: usize,
    phase: &AtomicU8,
    plan: &Plan,
    tracer: &mut Tracer,
) -> WorkerOut {
    let w = plan.workload;
    let mut out = WorkerOut::default();
    let mut stream = inputs::worker_stream(plan.seed, worker, w.key_range, w.mix);
    let stall = w.stall.filter(|s| s.victim == worker);
    let start = Instant::now();
    let mut index = 0u64;
    loop {
        let p = phase.load(Ordering::Relaxed);
        if p == STOP {
            return out;
        }
        let op = stream.next_op();
        let began = Instant::now();
        apply(ds, op, h, &mut out);
        let ended = Instant::now();
        if p == MEASURE {
            let ns = nanos(ended - began);
            out.latency.record(ns);
            out.busy_ns += ns;
            out.measured_ops += 1;
            if tracer.enabled() && index.is_multiple_of(OP_STRIDE) {
                tracer.leaf(op_span(op.kind), 0, index, began, ended);
            }
        }
        index += 1;
        if let Some(stall) = stall {
            // Sleep through the last `delay` of every `period`, between
            // operations, waking early only to stop.
            let period = nanos(stall.period);
            let into = nanos(ended - start) % period;
            if into >= period - nanos(stall.delay) {
                let wake = ended + Duration::from_nanos(period - into);
                while Instant::now() < wake && phase.load(Ordering::Relaxed) != STOP {
                    thread::sleep(
                        wake.saturating_duration_since(Instant::now())
                            .min(Duration::from_millis(1)),
                    );
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn soak_worker<S: Smr, D: SetDs<S>>(
    ds: &D,
    pool: &LeasePool<S::Handle>,
    due: &[u64],
    tickets: &AtomicUsize,
    start: Instant,
    plan: &Plan,
    tracer: &mut Tracer,
) -> WorkerOut {
    let w = plan.workload;
    let ol = w.open_loop.expect("soak workload");
    let warmup_ns = nanos(plan.warmup);
    let mut out = WorkerOut::default();
    loop {
        // Claim the next session only once it is due, so a worker that is
        // descheduled while waiting never holds a session the other worker
        // could have started.
        let mut ticket = tickets.load(Ordering::Relaxed);
        let (ticket, due_ns) = loop {
            let Some(&due_ns) = due.get(ticket) else {
                return out;
            };
            wait_until(start + Duration::from_nanos(due_ns));
            match tickets.compare_exchange(ticket, ticket + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break (ticket, due_ns),
                Err(now) => ticket = now,
            }
        };
        let due_at = start + Duration::from_nanos(due_ns);
        let began = Instant::now();
        let measured = due_ns >= warmup_ns;
        let traced = tracer.enabled() && measured && ticket.is_multiple_of(SESSION_STRIDE);
        let session = if traced { tracer.open() } else { 0 };
        let req = ticket as u64;
        let mut lease = match pool.try_checkout() {
            Some(lease) => lease,
            None => {
                out.lease_waits += 1;
                match pool.checkout() {
                    Ok(lease) => lease,
                    Err(_) => {
                        out.lease_failures += 1;
                        continue;
                    }
                }
            }
        };
        out.checkouts += 1;
        if traced {
            tracer.leaf("lease.checkout", session, req, began, Instant::now());
        }
        let mut stream = inputs::session_stream(plan.seed, ticket, w.key_range, w.mix);
        for _ in 0..ol.ops_per_session {
            let op = stream.next_op();
            if traced {
                let a = Instant::now();
                apply(ds, op, &mut lease, &mut out);
                tracer.leaf(op_span(op.kind), session, req, a, Instant::now());
            } else {
                apply(ds, op, &mut lease, &mut out);
            }
        }
        let checkin = if traced { Some(Instant::now()) } else { None };
        drop(lease);
        let ended = Instant::now();
        if let Some(checkin) = checkin {
            tracer.leaf("lease.checkin", session, req, checkin, ended);
            tracer.close(session, "session", 0, req, began, ended);
        }
        out.sessions += 1;
        if measured {
            out.latency.record(nanos(ended - due_at));
            out.lag.record(nanos(began - due_at));
            out.busy_ns += nanos(ended - began);
            out.measured_ops += ol.ops_per_session as u64;
            out.last_end = Some(ended);
        }
    }
}

/// The correctness gate run at the end of every cell, with every worker
/// handle already dropped: the set-size model, then reclamation accounting
/// after a final drain.
fn check_final<S: Smr, D: SetDs<S>>(
    scheme: &Arc<S>,
    ds: &D,
    added: u64,
    removed: u64,
    quiescence_threshold: usize,
    res: &mut CellResult,
) {
    let mut h = scheme.register();
    let len = ds.len(&mut h) as u64;
    let expect = added - removed;
    if len != expect {
        res.fail(
            len.abs_diff(expect),
            format!("set-size model: prefill + inserts - removes = {expect}, len() = {len}"),
        );
    }
    // Drain: enough empty operations for a quiescent state, then a flush,
    // repeated (with a pause, for the time-based fallback path) until every
    // retired node is freed or the deadline passes.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let stats = loop {
        for _ in 0..=quiescence_threshold {
            drop(Guard::new(&mut h));
        }
        h.flush();
        let stats = scheme.stats();
        if stats.retired == stats.freed || Instant::now() >= deadline {
            break stats;
        }
        thread::sleep(Duration::from_millis(2));
    };
    if stats.retired != stats.freed || stats.retired_bytes != stats.freed_bytes {
        res.fail(
            stats.retired.abs_diff(stats.freed),
            format!(
                "reclamation accounting after drain: retired {} ({} B), freed {} ({} B)",
                stats.retired, stats.retired_bytes, stats.freed, stats.freed_bytes
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{smr_config, WORKLOADS};

    fn short_plan(workload: &Workload, traced: bool) -> Plan<'_> {
        Plan {
            workload,
            seed: 9,
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(60),
            config: smr_config(workload.structure, traced),
            traced,
            origin: Instant::now(),
            tag_base: 0,
        }
    }

    fn run_hp(plan: &Plan) -> CellResult {
        match plan.workload.structure {
            crate::workloads::Structure::List => {
                run::<hazard::Hazard, HarrisMichaelList<u64, _>>(hazard::Hazard::new, plan)
            }
            crate::workloads::Structure::SkipList => {
                run::<hazard::Hazard, LockFreeSkipList<u64, _>>(hazard::Hazard::new, plan)
            }
        }
    }

    #[test]
    fn trimmed_mean_drops_spikes_and_follows_ramps() {
        let spiky: Vec<u64> = (0..100)
            .map(|i| if i % 25 == 0 { 1_000_000 } else { 100 })
            .collect();
        assert_eq!(trimmed_mean(spiky), 100.0);
        assert_eq!(trimmed_mean((0..=100).collect()), 50.0);
        assert_eq!(trimmed_mean(vec![7]), 7.0);
        assert_eq!(trimmed_mean(Vec::new()), 0.0);
    }

    #[test]
    fn every_workload_passes_the_gate_on_a_short_run() {
        for workload in &WORKLOADS {
            let res = run_hp(&short_plan(workload, false));
            assert_eq!(res.failed, 0, "{}: {:?}", workload.name, res.failures);
            assert!(
                res.measured_ops > 0 && res.latency.count() > 0,
                "{}",
                workload.name
            );
            assert!(
                res.setup_ns > 0 && res.spans.is_empty(),
                "{}",
                workload.name
            );
        }
    }

    #[test]
    fn traced_cells_record_the_span_set() {
        let soak = crate::workloads::by_name("soak").unwrap();
        let res = run_hp(&short_plan(soak, true));
        assert_eq!(res.failed, 0, "{:?}", res.failures);
        for name in [
            "setup",
            "setup.prefill",
            "smr.register",
            "smr.flush",
            "session",
            "lease.checkout",
            "lease.checkin",
        ] {
            assert!(res.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        let session = res.spans.iter().find(|s| s.name == "session").unwrap();
        assert!(res
            .spans
            .iter()
            .any(|s| s.parent == session.id && s.name.starts_with("lockfree_ds.")));
    }
}
