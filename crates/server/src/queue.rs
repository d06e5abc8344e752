//! The position-update input queue (Section 3.4): a bounded FIFO whose
//! overflow behavior is exactly the "random update dropping" failure mode
//! LIRA prevents, plus the windowed arrival rate THROTLOOP needs (the
//! [`Governor`](crate::governor::Governor) reads it).

use std::collections::{vec_deque, VecDeque};

/// A bounded FIFO of position updates with drop accounting.
///
/// Each queued update keeps the time at which it was offered, so
/// [`UpdateQueue::service_at`] can report per-update queueing latency.
/// The times are stored run-length: consecutive admissions offered at
/// bit-identical times share one `(time, count)` run of 16 B, so a burst
/// stamped by one clock read costs one run, whatever its size. The items
/// live in a deque of their own, which never allocates for `T = ()` (the
/// served session's books-only ledger). Nothing is reserved up front:
/// any capacity `B` costs nothing until updates queue.
#[derive(Debug, Clone)]
pub struct UpdateQueue<T> {
    /// Offer times of the queued items, oldest first, as `(time, count)`
    /// runs. Adjacent runs differ in their time's bits, and the counts
    /// sum to `items.len()`.
    runs: VecDeque<(f64, usize)>,
    items: VecDeque<T>,
    capacity: usize,
    arrived: u64,
    dropped: u64,
    /// Arrivals since the last window close, for rate estimation.
    window_arrived: u64,
}

impl<T> UpdateQueue<T> {
    /// Creates a queue holding at most `capacity` updates (`B` in the
    /// paper). Allocates nothing.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        UpdateQueue {
            runs: VecDeque::new(),
            items: VecDeque::new(),
            capacity,
            arrived: 0,
            dropped: 0,
            window_arrived: 0,
        }
    }

    /// Current queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offers an update arriving at `now_s`. A full queue drops it (tail
    /// drop) and returns `false` — the server-actuated shedding the paper
    /// argues against. An admitted update joins the newest run when
    /// `now_s` has that run's bits (so −0.0 and NaN come back as
    /// offered), and starts a run otherwise.
    pub fn offer_at(&mut self, now_s: f64, item: T) -> bool {
        self.arrived += 1;
        self.window_arrived += 1;
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.items.push_back(item);
        if let Some((time, count)) = self.runs.back_mut() {
            if time.to_bits() == now_s.to_bits() {
                *count += 1;
                return true;
            }
        }
        self.start_run(now_s);
        true
    }

    /// Opens a run for an admission at a new time. Out of line: a burst
    /// stamped by one clock read starts one run and joins it thousands
    /// of times, and the deque's growth path inlined into every caller's
    /// offer loop costs that loop more than the call does (≈ 4 ns an
    /// update on the served session's `handle(Batch)`, measured on a
    /// 2-vCPU guest).
    #[cold]
    #[inline(never)]
    fn start_run(&mut self, now_s: f64) {
        self.runs.push_back((now_s, 1));
    }

    /// Dequeues the first `min(n, len)` updates with their arrival
    /// timestamps (the value passed to [`Self::offer_at`]), in FIFO order
    /// and in place: the iterator lends the items out of the queue's own
    /// buffer, so a drain copies nothing. Dropping the iterator early
    /// still dequeues all of them. The caller computes queueing latency
    /// as `now − arrived_at`.
    pub fn service_at(&mut self, n: usize) -> Drain<'_, T> {
        let take = n.min(self.items.len());
        Drain {
            runs: &mut self.runs,
            items: self.items.drain(..take),
        }
    }

    /// Lifetime arrivals.
    #[inline]
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Lifetime drops.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Closes the current observation window of `window_seconds` and
    /// returns its arrival rate λ (updates/sec): every offer counts,
    /// admitted or dropped.
    pub fn window_arrival_rate(&mut self, window_seconds: f64) -> f64 {
        assert!(window_seconds > 0.0);
        let rate = self.window_arrived as f64 / window_seconds;
        self.window_arrived = 0;
        rate
    }
}

impl UpdateQueue<()> {
    /// The queued offer times as `(time, count)` runs, oldest first, for
    /// a ledger whose items carry nothing: one step per run instead of
    /// one per queued update. Dequeues nothing.
    pub fn runs(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.runs.iter().copied()
    }
}

/// The FIFO prefix [`UpdateQueue::service_at`] dequeues: yields each
/// update with its offer time, oldest first. Dropping it dequeues
/// whatever it did not yield.
#[derive(Debug)]
pub struct Drain<'a, T> {
    runs: &'a mut VecDeque<(f64, usize)>,
    items: vec_deque::Drain<'a, T>,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = (f64, T);

    #[inline]
    fn next(&mut self) -> Option<(f64, T)> {
        let item = self.items.next()?;
        let run = self.runs.front_mut().expect("every queued item has a run");
        let time = run.0;
        run.1 -= 1;
        if run.1 == 0 {
            self.runs.pop_front();
        }
        Some((time, item))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.items.size_hint()
    }
}

impl<T> ExactSizeIterator for Drain<'_, T> {}

impl<T> Drop for Drain<'_, T> {
    /// Takes the unyielded rest of the prefix off the runs, a run at a
    /// time; the items' own drain takes the items.
    fn drop(&mut self) {
        let mut rest = self.items.len();
        while rest > 0 {
            let run = self.runs.front_mut().expect("every queued item has a run");
            if run.1 > rest {
                run.1 -= rest;
                return;
            }
            rest -= run.1;
            self.runs.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer<T>(q: &mut UpdateQueue<T>, item: T) -> bool {
        q.offer_at(0.0, item)
    }

    fn service<T>(q: &mut UpdateQueue<T>, n: usize) -> Vec<T> {
        q.service_at(n).map(|(_, item)| item).collect()
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut q = UpdateQueue::new(3);
        assert!(offer(&mut q, 1));
        assert!(offer(&mut q, 2));
        assert!(offer(&mut q, 3));
        assert!(!offer(&mut q, 4), "overflow must drop");
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 1);
        assert_eq!(service(&mut q, 2), vec![1, 2]);
        assert!(offer(&mut q, 5));
        assert_eq!(service(&mut q, 10), vec![3, 5]);
        assert!(q.is_empty());
        assert_eq!(q.arrived(), 5);
    }

    #[test]
    fn window_arrival_rates() {
        let mut q = UpdateQueue::new(100);
        for i in 0..50 {
            offer(&mut q, i);
        }
        service(&mut q, 20);
        assert_eq!(q.window_arrival_rate(10.0), 5.0);
        // Window counters reset.
        assert_eq!(q.window_arrival_rate(10.0), 0.0);
    }

    #[test]
    fn service_zero_and_empty() {
        let mut q: UpdateQueue<u8> = UpdateQueue::new(4);
        assert!(service(&mut q, 0).is_empty());
        assert!(service(&mut q, 10).is_empty());
        offer(&mut q, 1);
        assert!(service(&mut q, 0).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn overflow_accounting_at_exact_capacity() {
        // Filling to exactly `B` drops nothing; only the `B+1`-th arrival
        // is tail-dropped, and freeing one slot re-admits exactly one.
        let mut q = UpdateQueue::new(4);
        for i in 0..4 {
            assert!(offer(&mut q, i), "item {i} fits");
        }
        assert_eq!((q.len(), q.dropped()), (4, 0));
        assert!(!offer(&mut q, 4));
        assert!(!offer(&mut q, 5));
        assert_eq!((q.len(), q.dropped(), q.arrived()), (4, 2, 6));
        assert_eq!(service(&mut q, 1), vec![0]);
        assert!(offer(&mut q, 6));
        assert!(!offer(&mut q, 7));
        assert_eq!((q.len(), q.dropped()), (4, 3));
    }

    #[test]
    fn window_counters_reset_independently_of_lifetime() {
        let mut q = UpdateQueue::new(10);
        for i in 0..6 {
            offer(&mut q, i);
        }
        service(&mut q, 4);
        assert_eq!(q.window_arrival_rate(2.0), 3.0);
        // Lifetime counters survive the window close...
        assert_eq!((q.arrived(), q.len(), q.dropped()), (6, 2, 0));
        // ...while the window starts from zero and counts only new traffic.
        offer(&mut q, 100);
        service(&mut q, 10);
        assert_eq!(q.window_arrival_rate(1.0), 1.0);
        assert_eq!((q.arrived(), q.len()), (7, 0));
        // An empty window reads as silent, not as stale traffic.
        assert_eq!(q.window_arrival_rate(5.0), 0.0);
    }

    #[test]
    fn timestamped_offers_report_queueing_latency() {
        let mut q = UpdateQueue::new(4);
        q.offer_at(10.0, "a");
        q.offer_at(11.0, "b");
        let now = 12.5;
        let served: Vec<_> = q.service_at(3).collect();
        let latencies: Vec<f64> = served.iter().map(|(t, _)| now - t).collect();
        assert_eq!(served[0].1, "a");
        assert!((latencies[0] - 2.5).abs() < 1e-12);
        assert!((latencies[1] - 1.5).abs() < 1e-12);
        assert_eq!((q.arrived(), q.len(), q.dropped()), (2, 0, 0));
    }

    #[test]
    fn service_at_lends_a_fifo_prefix_and_takes_at_the_call() {
        let mut q = UpdateQueue::new(8);
        for i in 0..3 {
            q.offer_at(i as f64, i);
        }
        let first: Vec<_> = q.service_at(2).collect();
        assert_eq!(first, vec![(0.0, 0), (1.0, 1)]);
        for i in 3..6 {
            q.offer_at(i as f64, i);
        }
        // Asking for more than is queued takes what is there, in order.
        assert_eq!(service(&mut q, 100), vec![2, 3, 4, 5]);
        assert!(q.is_empty());

        for i in 6..10 {
            q.offer_at(i as f64, i);
        }
        // A half-consumed iterator still dequeues all three...
        let mut lent = q.service_at(3);
        assert_eq!(lent.next(), Some((6.0, 6)));
        drop(lent);
        assert_eq!(q.len(), 1);
        // ...and one never consumed at all still takes `min(n, len)`.
        drop(q.service_at(5));
        assert_eq!((q.len(), q.arrived()), (0, 10));
        // The window counts arrivals, however they were drained.
        assert_eq!(q.window_arrival_rate(2.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "window_seconds > 0.0")]
    fn rejects_zero_window() {
        let mut q: UpdateQueue<u8> = UpdateQueue::new(4);
        q.window_arrival_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        UpdateQueue::<u32>::new(0);
    }
}
