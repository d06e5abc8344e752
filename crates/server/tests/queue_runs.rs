//! The run-length [`UpdateQueue`] against the per-slot queue it
//! replaced: random scripts of offers, tail drops, partly consumed
//! drains and window closes must yield the same updates with the same
//! offer times (bit for bit: −0.0 and NaNs of two payloads are in the
//! time pool), the same books and the same rates. A books-only ledger
//! (`T = ()`) driven by the same script must show, through its run view,
//! exactly the oracle's slots grouped into maximal runs of equal bits.

use std::collections::VecDeque;

use lira_server::queue::UpdateQueue;
use proptest::prelude::*;

/// The queue body before offer times went run-length: one `(time, item)`
/// slot per queued update.
struct PerSlot<T> {
    items: VecDeque<(f64, T)>,
    capacity: usize,
    arrived: u64,
    dropped: u64,
    window_arrived: u64,
}

impl<T> PerSlot<T> {
    fn new(capacity: usize) -> Self {
        PerSlot {
            items: VecDeque::new(),
            capacity,
            arrived: 0,
            dropped: 0,
            window_arrived: 0,
        }
    }

    fn offer_at(&mut self, now_s: f64, item: T) -> bool {
        self.arrived += 1;
        self.window_arrived += 1;
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            false
        } else {
            self.items.push_back((now_s, item));
            true
        }
    }

    fn service_at(&mut self, n: usize) -> std::collections::vec_deque::Drain<'_, (f64, T)> {
        let take = n.min(self.items.len());
        self.items.drain(..take)
    }

    fn window_arrival_rate(&mut self, window_seconds: f64) -> f64 {
        let rate = self.window_arrived as f64 / window_seconds;
        self.window_arrived = 0;
        rate
    }

    /// The queued offer times grouped into maximal runs of equal bits.
    fn grouped(&self) -> Vec<(u64, usize)> {
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for (time, _) in &self.items {
            match runs.last_mut() {
                Some((bits, count)) if *bits == time.to_bits() => *count += 1,
                _ => runs.push((time.to_bits(), 1)),
            }
        }
        runs
    }
}

/// Offer times: both zeros, two NaN payloads, and ordinary times, so
/// equal values with different bits (and NaNs, equal to nothing) meet.
const TIMES: [f64; 6] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_0001),
    1.0,
    2.5,
];

const WINDOWS: [f64; 3] = [0.5, 1.0, 3.0];

#[derive(Clone, Debug)]
enum Op {
    /// A burst of `count` offers at one time, as a `Batch` stamps them.
    Offer { time: usize, count: u32 },
    /// `service_at(n)`, of which the first `consume` are pulled before
    /// the iterator is dropped.
    Service { n: usize, consume: usize },
    /// A window close.
    Rate { window: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Selector 0..10: 5 parts offer, 4 service, 1 window close (the
    // vendored proptest has no `prop_oneof`).
    prop::collection::vec(
        (
            0u32..10,
            0usize..TIMES.len(),
            1u32..5,
            0usize..12,
            0usize..12,
        )
            .prop_map(|(sel, time, count, n, consume)| match sel {
                0..=4 => Op::Offer { time, count },
                5..=8 => Op::Service { n, consume },
                _ => Op::Rate {
                    window: n % WINDOWS.len(),
                },
            }),
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_length_queue_matches_the_per_slot_queue(capacity in 1usize..10, script in ops()) {
        let mut oracle = PerSlot::new(capacity);
        let mut queue = UpdateQueue::new(capacity);
        let mut ledger = UpdateQueue::new(capacity);
        let mut next = 0u32;
        for op in &script {
            match *op {
                Op::Offer { time, count } => {
                    for _ in 0..count {
                        let now = TIMES[time];
                        let admitted = oracle.offer_at(now, next);
                        prop_assert_eq!(queue.offer_at(now, next), admitted);
                        prop_assert_eq!(ledger.offer_at(now, ()), admitted);
                        next += 1;
                    }
                }
                Op::Service { n, consume } => {
                    let mut want = oracle.service_at(n);
                    let mut got = queue.service_at(n);
                    prop_assert_eq!(got.len(), want.len());
                    for _ in 0..consume {
                        let (w, g) = (want.next(), got.next());
                        prop_assert_eq!(
                            g.map(|(t, i)| (t.to_bits(), i)),
                            w.map(|(t, i)| (t.to_bits(), i))
                        );
                        prop_assert_eq!(got.len(), want.len());
                    }
                    drop((want, got));
                    drop(ledger.service_at(n));
                }
                Op::Rate { window } => {
                    let w = WINDOWS[window];
                    let rate = oracle.window_arrival_rate(w);
                    prop_assert_eq!(queue.window_arrival_rate(w).to_bits(), rate.to_bits());
                    prop_assert_eq!(ledger.window_arrival_rate(w).to_bits(), rate.to_bits());
                }
            }
            let books = (oracle.items.len(), oracle.arrived, oracle.dropped);
            prop_assert_eq!((queue.len(), queue.arrived(), queue.dropped()), books);
            prop_assert_eq!((ledger.len(), ledger.arrived(), ledger.dropped()), books);
            prop_assert_eq!(queue.is_empty(), oracle.items.is_empty());
            let runs: Vec<(u64, usize)> = ledger.runs().map(|(t, c)| (t.to_bits(), c)).collect();
            prop_assert_eq!(runs.iter().map(|&(_, c)| c).sum::<usize>(), ledger.len());
            prop_assert_eq!(runs, oracle.grouped());
        }
        // What is left comes out the same, to the last slot.
        let rest: Vec<(u64, u32)> = queue.service_at(usize::MAX).map(|(t, i)| (t.to_bits(), i)).collect();
        let want: Vec<(u64, u32)> = oracle.service_at(usize::MAX).map(|(t, i)| (t.to_bits(), i)).collect();
        prop_assert_eq!(rest, want);
        prop_assert!(queue.is_empty());
    }
}
