//! Deterministic interleaving harness (test-only).
//!
//! The races this crate's structures have to defend against live in windows of a
//! few instructions — between a traversal's *validation* of a link and the CAS
//! that acts on what was validated. Stress tests cross those windows once in
//! millions of runs; this module makes the crossing *deterministic* instead.
//!
//! Structures call [`hit`] at named **pause points** placed exactly at the
//! validate/CAS boundaries. With the `interleave` feature disabled (the default,
//! and always the case for release builds: the feature is only enabled by test
//! targets), `hit` compiles to an empty inline function — zero cost, no
//! dependencies. With the feature enabled, a **scheduler hook**
//! ([`set_scheduler`]) observes every pause point on participating threads:
//! `crates/reclaim-check`'s explorer uses it to serialize model threads and
//! enumerate every interleaving up to a preemption bound, and the workspace
//! root's `tests/interleaving_harness.rs` replays the recorded schedule that
//! crosses a given window — the systematic replacement for hand-choreographed
//! traps.
//!
//! The scheduler is process-global (the pause points are reached deep inside
//! data structure internals), so at most one can be installed at a time; a
//! second [`try_set_scheduler`] reports [`ArmConflict`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Fast-path gate: pause points only take the scheduler lock while a scheduler
/// is installed, so an instrumented binary with no active explorer pays one
/// acquire load per pause point.
static SCHEDULER_ACTIVE: AtomicBool = AtomicBool::new(false);

/// A scheduler observes every pause point (the point name is passed through);
/// it decides when the calling thread may proceed, typically by parking it.
type Scheduler = Arc<dyn Fn(&'static str) + Send + Sync>;

/// The (single) installed scheduler hook.
fn scheduler() -> &'static Mutex<Option<Scheduler>> {
    static SCHEDULER: OnceLock<Mutex<Option<Scheduler>>> = OnceLock::new();
    SCHEDULER.get_or_init(|| Mutex::new(None))
}

/// A pause point. Structures call this at validate/CAS boundaries; if a
/// scheduler is set, it runs on the calling thread (and may park it until it
/// is granted a turn).
#[inline]
pub fn hit(point: &'static str) {
    if !SCHEDULER_ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let sched = scheduler()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone);
    if let Some(sched) = sched {
        sched(point);
    }
}

/// Error returned by [`try_set_scheduler`] when a scheduler is already
/// installed: two explorers driving the same pause points would each park
/// threads the other never grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmConflict;

impl fmt::Display for ArmConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "interleave: a scheduler is already installed; drop the existing \
             SchedulerGuard first (the scheduler is process-global — serialize \
             tests that set one)",
        )
    }
}

impl std::error::Error for ArmConflict {}

/// Uninstalls the scheduler on drop.
pub struct SchedulerGuard {
    _private: (),
}

impl Drop for SchedulerGuard {
    fn drop(&mut self) {
        let mut slot = scheduler().lock().unwrap_or_else(|e| e.into_inner());
        SCHEDULER_ACTIVE.store(false, Ordering::Release);
        *slot = None;
    }
}

/// Installs the process-global scheduler hook: `sched` is called with the point
/// name at **every** pause point on every thread until the returned guard
/// drops. At most one scheduler can be active; a second [`try_set_scheduler`]
/// returns [`ArmConflict`] (explorers must serialize).
pub fn try_set_scheduler(
    sched: impl Fn(&'static str) + Send + Sync + 'static,
) -> Result<SchedulerGuard, ArmConflict> {
    let mut slot = scheduler().lock().unwrap_or_else(|e| e.into_inner());
    if slot.is_some() {
        return Err(ArmConflict);
    }
    *slot = Some(Arc::new(sched));
    SCHEDULER_ACTIVE.store(true, Ordering::Release);
    Ok(SchedulerGuard { _private: () })
}

/// Panicking variant of [`try_set_scheduler`].
pub fn set_scheduler(sched: impl Fn(&'static str) + Send + Sync + 'static) -> SchedulerGuard {
    match try_set_scheduler(sched) {
        Ok(guard) => guard,
        Err(conflict) => panic!("{conflict}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_without_a_scheduler_is_a_no_op() {
        hit("interleave::test::no-scheduler");
    }

    #[test]
    fn scheduler_sees_every_point_and_second_scheduler_is_rejected() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sched_seen = Arc::clone(&seen);
        let guard = set_scheduler(move |point| {
            sched_seen
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(point);
        });
        let conflict = try_set_scheduler(|_| {})
            .err()
            .expect("a second scheduler must be rejected");
        assert!(conflict.to_string().contains("already installed"));
        hit("interleave::test::sched-a");
        hit("interleave::test::sched-b");
        {
            let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
            assert!(seen.contains(&"interleave::test::sched-a"));
            assert!(seen.contains(&"interleave::test::sched-b"));
        }
        drop(guard);
        hit("interleave::test::sched-after-drop");
        let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!seen.contains(&"interleave::test::sched-after-drop"));
    }
}
