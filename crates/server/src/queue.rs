//! The position-update input queue (Section 3.4): a bounded FIFO whose
//! overflow behavior is exactly the "random update dropping" failure mode
//! LIRA prevents, plus the windowed arrival rate THROTLOOP needs (the
//! [`Governor`](crate::governor::Governor) reads it).

/// A bounded FIFO of position updates with drop accounting.
///
/// Each entry carries the time at which it was offered, so
/// [`UpdateQueue::service_at`] can report per-update queueing latency
/// without a second bookkeeping structure.
#[derive(Debug, Clone)]
pub struct UpdateQueue<T> {
    items: std::collections::VecDeque<(f64, T)>,
    capacity: usize,
    arrived: u64,
    dropped: u64,
    /// Arrivals since the last window close, for rate estimation.
    window_arrived: u64,
}

impl<T> UpdateQueue<T> {
    /// Creates a queue holding at most `capacity` updates (`B` in the paper).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        UpdateQueue {
            items: std::collections::VecDeque::with_capacity(capacity),
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
    /// argues against.
    pub fn offer_at(&mut self, now_s: f64, item: T) -> bool {
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

    /// Dequeues the first `min(n, len)` updates with their arrival
    /// timestamps (the value passed to [`Self::offer_at`]), in FIFO order
    /// and in place: the iterator lends them out of the queue's own
    /// buffer, so a drain copies nothing. Dropping the iterator early
    /// still dequeues all of them. The caller computes queueing latency
    /// as `now − arrived_at`.
    pub fn service_at(&mut self, n: usize) -> std::collections::vec_deque::Drain<'_, (f64, T)> {
        let take = n.min(self.items.len());
        self.items.drain(..take)
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
