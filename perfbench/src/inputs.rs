//! Seeded inputs. Everything the benchmark feeds the library — prefill keys,
//! per-worker op streams, session bursts and the soak's arrival schedule — is
//! derived here from `--seed` alone, with the benchmark's own generator, so
//! no edit elsewhere in the repository can change what a run asks the
//! library to do.

/// splitmix64: one multiply-shift-xor chain per draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags, so that no two kinds of input share a sub-seed.
const TAG_PREFILL: u64 = 1;
const TAG_WORKER: u64 = 2;
const TAG_SESSION: u64 = 3;
const TAG_ARRIVALS: u64 = 4;

/// An independent generator state for stream `index` of kind `tag`.
fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut state =
        seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut state)
}

/// `draw` mapped uniformly onto `0..bound` (multiply-shift, no division).
fn below(draw: u64, bound: u64) -> u64 {
    ((u128::from(draw) * u128::from(bound)) >> 64) as u64
}

/// Which set call an operation makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `contains(key)`
    Contains,
    /// `insert(key)`
    Insert,
    /// `remove(key)`
    Remove,
}

/// One set operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// The call.
    pub kind: OpKind,
    /// Its key, uniform over the workload's key range.
    pub key: u64,
}

/// Operation mix in percent; the rest of the 100 are `contains`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Share of inserts, in percent.
    pub insert_pct: u64,
    /// Share of removes, in percent.
    pub remove_pct: u64,
}

/// An endless, deterministic stream of uniform-key operations.
#[derive(Clone, Debug)]
pub struct OpStream {
    state: u64,
    key_range: u64,
    mix: Mix,
}

impl OpStream {
    fn new(state: u64, key_range: u64, mix: Mix) -> Self {
        assert!(key_range > 0, "key range must be non-empty");
        assert!(mix.insert_pct + mix.remove_pct <= 100, "mix exceeds 100%");
        Self {
            state,
            key_range,
            mix,
        }
    }

    /// The next operation: one draw for the key, one for the kind.
    pub fn next_op(&mut self) -> Op {
        let key = below(splitmix64(&mut self.state), self.key_range);
        let pick = below(splitmix64(&mut self.state), 100);
        let kind = if pick < self.mix.insert_pct {
            OpKind::Insert
        } else if pick < self.mix.insert_pct + self.mix.remove_pct {
            OpKind::Remove
        } else {
            OpKind::Contains
        };
        Op { kind, key }
    }
}

/// The op stream of closed-loop worker `worker`. Every scheme's cell gets
/// the same streams, so the schemes are compared on identical inputs.
pub fn worker_stream(seed: u64, worker: usize, key_range: u64, mix: Mix) -> OpStream {
    OpStream::new(derive(seed, TAG_WORKER, worker as u64), key_range, mix)
}

/// The burst of soak session `ticket` (the caller takes as many ops as a
/// session runs).
pub fn session_stream(seed: u64, ticket: usize, key_range: u64, mix: Mix) -> OpStream {
    OpStream::new(derive(seed, TAG_SESSION, ticket as u64), key_range, mix)
}

/// `count` distinct keys of `0..key_range`, in a seeded random insertion
/// order (a partial Fisher–Yates shuffle).
pub fn prefill_keys(seed: u64, key_range: u64, count: usize) -> Vec<u64> {
    assert!(
        count as u64 <= key_range,
        "cannot prefill more keys than the range holds"
    );
    let mut keys: Vec<u64> = (0..key_range).collect();
    let mut state = derive(seed, TAG_PREFILL, 0);
    for i in 0..count {
        let j = i + below(splitmix64(&mut state), key_range - i as u64) as usize;
        keys.swap(i, j);
    }
    keys.truncate(count);
    keys
}

/// Due times, in nanoseconds from the start of the soak, of every session
/// arriving within `window_ns`: a Poisson process of `rate_per_s` (seeded
/// exponential gaps), as independent users would produce.
pub fn arrivals(seed: u64, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut state = derive(seed, TAG_ARRIVALS, 0);
    let mean_gap_ns = 1.0e9 / rate_per_s;
    let mut due = Vec::with_capacity((window_ns as f64 / mean_gap_ns * 1.2) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Uniform in (0, 1): 53 random bits, offset by half a step.
        let u = ((splitmix64(&mut state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() * mean_gap_ns;
        if t >= window_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        insert_pct: 25,
        remove_pct: 25,
    };

    fn take(mut stream: OpStream, n: usize) -> Vec<Op> {
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        for worker in 0..2 {
            assert_eq!(
                take(worker_stream(7, worker, 20_000, MIX), 10_000),
                take(worker_stream(7, worker, 20_000, MIX), 10_000)
            );
        }
        assert_eq!(
            take(session_stream(7, 42, 512, MIX), 64),
            take(session_stream(7, 42, 512, MIX), 64)
        );
        assert_eq!(prefill_keys(7, 2_000, 1_000), prefill_keys(7, 2_000, 1_000));
        assert_eq!(
            arrivals(7, 8_000.0, 500_000_000),
            arrivals(7, 8_000.0, 500_000_000)
        );
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(
            take(worker_stream(7, 0, 20_000, MIX), 1_000),
            take(worker_stream(8, 0, 20_000, MIX), 1_000)
        );
        assert_ne!(
            take(session_stream(7, 3, 512, MIX), 64),
            take(session_stream(8, 3, 512, MIX), 64)
        );
        assert_ne!(prefill_keys(7, 2_000, 1_000), prefill_keys(8, 2_000, 1_000));
        assert_ne!(
            arrivals(7, 8_000.0, 500_000_000),
            arrivals(8, 8_000.0, 500_000_000)
        );
    }

    #[test]
    fn workers_and_sessions_get_distinct_streams() {
        assert_ne!(
            take(worker_stream(7, 0, 20_000, MIX), 1_000),
            take(worker_stream(7, 1, 20_000, MIX), 1_000)
        );
        assert_ne!(
            take(session_stream(7, 0, 512, MIX), 64),
            take(session_stream(7, 1, 512, MIX), 64)
        );
    }

    #[test]
    fn streams_follow_the_mix_and_the_key_range() {
        let ops = take(
            worker_stream(
                1,
                0,
                2_000,
                Mix {
                    insert_pct: 5,
                    remove_pct: 5,
                },
            ),
            100_000,
        );
        assert!(ops.iter().all(|op| op.key < 2_000));
        let inserts = ops.iter().filter(|op| op.kind == OpKind::Insert).count();
        let removes = ops.iter().filter(|op| op.kind == OpKind::Remove).count();
        assert!((4_500..5_500).contains(&inserts), "inserts = {inserts}");
        assert!((4_500..5_500).contains(&removes), "removes = {removes}");
    }

    #[test]
    fn prefill_keys_are_distinct_and_in_range() {
        let mut keys = prefill_keys(3, 20_000, 10_000);
        assert_eq!(keys.len(), 10_000);
        assert!(keys.iter().all(|&k| k < 20_000));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn arrivals_are_ordered_and_match_the_rate() {
        let due = arrivals(5, 10_000.0, 1_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            (9_500..10_500).contains(&due.len()),
            "arrivals = {}",
            due.len()
        );
    }
}
