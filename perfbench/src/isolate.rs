//! Guard-layer isolation (traced run only): the cost of the guard bracket,
//! of one protect-and-validate and of one retire, per scheme on one thread,
//! over nodes built before timing starts, using only the safe guard API
//! (`Guard` / `Atomic` / `Owned` / `Unlinked`). A node-sized `Box`
//! allocate-and-free is timed beside them as the allocator floor.

use reclaim_core::{Atomic, Guard, Owned, Shared, Smr, SmrConfig, SmrHandle};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Nodes per repetition.
const NODES: usize = 4_096;
/// Repetitions; each figure is the median.
const REPS: usize = 9;
/// Retires per guard, as a set operation retires at most a few nodes.
const RETIRES_PER_GUARD: usize = 16;

/// The payload of an isolation node: the list node's key and link word, so
/// an isolation node is exactly as large as a list node.
type Payload = [u64; 2];

/// Per-call costs of one scheme's guard layer, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct GuardCosts {
    /// `Guard::new` + drop (`begin_op`, `clear_protections`, `end_op`).
    pub bracket_ns: f64,
    /// `Guard::load_protected` on an uncontended link.
    pub protect_ns: f64,
    /// Unlink CAS + `Unlinked::retire`, with the amortized scans and frees
    /// the retires trigger, and one bracket per 16 retires.
    pub retire_ns: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn per_call(began: Instant, calls: usize) -> f64 {
    began.elapsed().as_nanos() as f64 / calls as f64
}

/// Times `scheme`'s guard layer.
pub fn guard_costs<S: Smr>(make: fn(SmrConfig) -> Arc<S>, config: SmrConfig) -> GuardCosts {
    let scheme = make(config);
    let mut h = scheme.register();
    let mut links: Vec<Atomic<Payload>> = (0..NODES).map(|_| Atomic::null()).collect();
    let (mut bracket, mut protect, mut retire) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        {
            let g = Guard::new(&mut h);
            for (i, link) in links.iter_mut().enumerate() {
                *link = Atomic::new(Owned::new([i as u64, 0], &g));
            }
        }

        let began = Instant::now();
        for _ in 0..NODES {
            drop(black_box(Guard::new(&mut h)));
        }
        bracket.push(per_call(began, NODES));

        let began = Instant::now();
        {
            let g = Guard::new(&mut h);
            for (i, link) in links.iter().enumerate() {
                black_box(g.load_protected(i & 1, link));
            }
        }
        protect.push(per_call(began, NODES));

        let began = Instant::now();
        for chunk in links.chunks(RETIRES_PER_GUARD) {
            let g = Guard::new(&mut h);
            for link in chunk {
                let current = link.load(&g);
                // SAFETY: each link is the only path to its node and nothing
                // else runs, so the successful CAS makes the node unreachable
                // and mints its only `Unlinked`.
                let (unlinked, _) = unsafe { link.cas_unlink(current, Shared::null()) }
                    .expect("uncontended unlink succeeds");
                unlinked.retire(&g);
            }
        }
        retire.push(per_call(began, NODES));
    }
    h.flush();
    GuardCosts {
        bracket_ns: median(bracket),
        protect_ns: median(protect),
        retire_ns: median(retire),
    }
}

/// One node-sized `Box` allocation and free, in ns.
pub fn alloc_node_ns() -> f64 {
    // A list node: the payload plus the guard layer's birth-era header.
    type NodeSized = [u64; 3];
    let reps = (0..REPS)
        .map(|_| {
            let began = Instant::now();
            for i in 0..NODES {
                drop(black_box(Box::new(black_box([i as u64; 3] as NodeSized))));
            }
            per_call(began, NODES)
        })
        .collect();
    median(reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_times_every_call() {
        let costs = guard_costs(hazard::Hazard::new, SmrConfig::for_list());
        assert!(costs.bracket_ns > 0.0 && costs.protect_ns > 0.0 && costs.retire_ns > 0.0);
        assert!(alloc_node_ns() > 0.0);
    }
}
