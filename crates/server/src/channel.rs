//! Deterministic fault injection for the mobile uplink.
//!
//! The paper's operating regime (Section 3.4) is a server whose input
//! queue saturates under *imperfect* wireless delivery — yet a simulated
//! perfect channel delivers every position update instantly, in order,
//! exactly once. [`FaultyChannel`] models the uplink between a mobile
//! node's dead reckoner and the CQ server's input queue with seeded,
//! composable fault models:
//!
//! * **Loss** — i.i.d. Bernoulli loss, or bursty loss via a two-state
//!   Gilbert–Elliott chain (good/bad link states with per-state loss
//!   probabilities, the standard model for correlated wireless fades);
//! * **Delay** — bounded uniform per-transmission latency, which also
//!   yields reordering (the node store already rejects per-node
//!   time-reordered updates, so stale arrivals are dropped on ingest);
//! * **Duplication** — a successful transmission may deliver a second
//!   copy with its own latency draw (link-layer ack loss);
//! * **Outages** — scheduled base-station downtime windows during which
//!   every transmission is lost deterministically;
//! * **Retry** — a bounded client-side retry/backoff policy: a lost
//!   transmission is re-attempted after `backoff_s` until `max_retries`
//!   is exhausted, each retry paying wireless cost and re-running the
//!   loss model.
//!
//! Everything is driven by one seeded [`SmallRng`] and the caller's
//! simulation clock, so a given `(FaultProfile, seed)` pair reproduces a
//! bit-identical delivery schedule — no wall clock anywhere. The
//! degenerate [`FaultProfile::none`] performs **zero** RNG draws and
//! delivers same-call in FIFO order, which is what lets the simulation
//! pipeline prove its faulty path bit-identical to the historical
//! perfect-channel path.

use lira_core::error::{LiraError, Result};
use lira_core::geometry::{Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Message-loss model applied per wireless transmission (retries and
/// duplicates each count as their own transmission).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No channel loss.
    None,
    /// Independent loss: each transmission is lost with probability `p`.
    Iid {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss. The chain starts in the good
    /// state and takes one transition per transmission *before* the loss
    /// draw, so burst lengths follow the usual geometric sojourn times.
    GilbertElliott {
        /// P(good → bad) per transmission.
        p_g2b: f64,
        /// P(bad → good) per transmission.
        p_b2g: f64,
        /// Loss probability while the link is good (often ~0).
        loss_good: f64,
        /// Loss probability while the link is bad (often ~1).
        loss_bad: f64,
    },
}

impl LossModel {
    fn validate(&self) -> Result<()> {
        let probs: &[f64] = match self {
            LossModel::None => &[],
            LossModel::Iid { p } => &[*p],
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => &[*p_g2b, *p_b2g, *loss_good, *loss_bad],
        };
        for p in probs {
            if !(0.0..=1.0).contains(p) {
                return Err(LiraError::InvalidConfig(format!(
                    "loss probability {p} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// Per-transmission delivery-latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Instant delivery (the historical perfect-channel behavior).
    None,
    /// Latency drawn uniformly from `[min_s, max_s)` seconds. Spans wider
    /// than the sender's update spacing produce reordering.
    Uniform {
        /// Minimum latency (s).
        min_s: f64,
        /// Maximum latency (s).
        max_s: f64,
    },
}

impl DelayModel {
    fn validate(&self) -> Result<()> {
        if let DelayModel::Uniform { min_s, max_s } = self {
            if !(*min_s >= 0.0 && max_s >= min_s && max_s.is_finite()) {
                return Err(LiraError::InvalidConfig(format!(
                    "delay range [{min_s}, {max_s}) must be finite, ordered, non-negative"
                )));
            }
        }
        Ok(())
    }
}

/// A scheduled base-station outage: every transmission attempted in
/// `[start_s, end_s)` is lost without consuming an RNG draw (the loss is
/// certain, not stochastic). In-flight deliveries are unaffected.
///
/// An outage may additionally carry a *region predicate*: when `region`
/// is set, the outage only swallows transmissions whose sender declared a
/// position inside that rectangle (via
/// [`FaultyChannel::send_from`]) — the model of one base station failing
/// and taking its whole coverage area down at once, while the rest of the
/// space keeps transmitting. Position-unaware sends
/// ([`FaultyChannel::send`]) are never affected by regional outages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Outage start (inclusive), seconds.
    pub start_s: f64,
    /// Outage end (exclusive), seconds.
    pub end_s: f64,
    /// When set, the outage only applies to transmissions sent from
    /// inside this rectangle (min-edge inclusive, max-edge exclusive —
    /// the same predicate range queries use). `None` is a global outage.
    pub region: Option<Rect>,
}

impl Outage {
    /// A global (space-wide) outage over `[start_s, end_s)`.
    pub fn window(start_s: f64, end_s: f64) -> Self {
        Outage {
            start_s,
            end_s,
            region: None,
        }
    }

    /// A correlated regional outage: only transmissions sent from inside
    /// `region` during `[start_s, end_s)` are lost.
    pub fn regional(start_s: f64, end_s: f64, region: Rect) -> Self {
        Outage {
            start_s,
            end_s,
            region: Some(region),
        }
    }

    /// Whether `t` falls inside the outage window (ignores the region).
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }

    /// Whether a transmission at time `t` from `pos` is swallowed by this
    /// outage. A regional outage never applies to a position-unaware send
    /// (`pos = None`); a global outage applies regardless of position.
    #[inline]
    pub fn applies(&self, t: f64, pos: Option<Point>) -> bool {
        if !self.contains(t) {
            return false;
        }
        match (self.region, pos) {
            (None, _) => true,
            (Some(r), Some(p)) => r.contains(&p),
            (Some(_), None) => false,
        }
    }
}

/// Client-side bounded retry/backoff for lost transmissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retransmissions attempted after the initial loss (0 = fire and
    /// forget, the paper's implicit model).
    pub max_retries: u32,
    /// Fixed delay before each retransmission, seconds.
    pub backoff_s: f64,
}

impl RetryPolicy {
    /// No retries: a lost transmission is simply lost.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_s: 0.0,
        }
    }
}

/// A composed uplink fault configuration. The building block every
/// networking scenario shares; thread one through
/// `lira_workload::scenario::Scenario` to exercise a whole policy
/// comparison under channel faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Per-transmission loss model.
    pub loss: LossModel,
    /// Per-transmission delivery latency model.
    pub delay: DelayModel,
    /// Probability that a successful transmission also delivers a
    /// duplicate copy (with its own latency draw).
    pub duplicate_prob: f64,
    /// Scheduled base-station outages.
    pub outages: Vec<Outage>,
    /// Client-side retry behavior for lost transmissions.
    pub retry: RetryPolicy,
}

impl FaultProfile {
    /// The fault-free profile: no loss, no delay, no duplicates, no
    /// outages, no retries. A channel built from it performs zero RNG
    /// draws and delivers same-call in send order.
    pub fn none() -> Self {
        FaultProfile {
            loss: LossModel::None,
            delay: DelayModel::None,
            duplicate_prob: 0.0,
            outages: Vec::new(),
            retry: RetryPolicy::none(),
        }
    }

    /// Convenience: i.i.d. loss at probability `p`, everything else clean.
    pub fn iid_loss(p: f64) -> Self {
        FaultProfile {
            loss: LossModel::Iid { p },
            ..FaultProfile::none()
        }
    }

    /// Whether this profile is behaviorally fault-free (the channel is a
    /// pure pass-through).
    pub fn is_none(&self) -> bool {
        self.loss == LossModel::None
            && self.delay == DelayModel::None
            && self.duplicate_prob == 0.0
            && self.outages.is_empty()
    }

    /// Validates all probabilities and windows.
    pub fn validate(&self) -> Result<()> {
        self.loss.validate()?;
        self.delay.validate()?;
        if !(0.0..=1.0).contains(&self.duplicate_prob) {
            return Err(LiraError::InvalidConfig(format!(
                "duplicate_prob {} outside [0, 1]",
                self.duplicate_prob
            )));
        }
        for o in &self.outages {
            if !(o.end_s > o.start_s && o.start_s.is_finite() && o.end_s.is_finite()) {
                return Err(LiraError::InvalidConfig(format!(
                    "outage [{}, {}) must be finite and non-empty",
                    o.start_s, o.end_s
                )));
            }
            if let Some(r) = &o.region {
                let finite = r.min.x.is_finite()
                    && r.min.y.is_finite()
                    && r.max.x.is_finite()
                    && r.max.y.is_finite();
                if !finite || r.width() <= 0.0 || r.height() <= 0.0 {
                    return Err(LiraError::InvalidConfig(format!(
                        "outage region {r:?} must be finite with positive area"
                    )));
                }
            }
        }
        if !(self.retry.backoff_s >= 0.0 && self.retry.backoff_s.is_finite()) {
            return Err(LiraError::InvalidConfig(format!(
                "retry backoff {} must be finite and non-negative",
                self.retry.backoff_s
            )));
        }
        Ok(())
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// Delivery/loss/retry accounting for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelStats {
    /// Payloads handed to the channel by the application.
    pub sent: u64,
    /// Wireless transmissions attempted (originals + retries + duplicate
    /// copies) — the airtime cost.
    pub transmissions: u64,
    /// Retransmission attempts (subset of `transmissions`).
    pub retries: u64,
    /// Payloads whose primary copy was delivered.
    pub delivered: u64,
    /// Duplicate copies delivered on top of `delivered`.
    pub duplicates: u64,
    /// Payloads lost after exhausting their retry budget.
    pub lost: u64,
    /// Sum of primary-copy delivery latencies, seconds (staleness).
    pub delay_sum_s: f64,
    /// RNG draws consumed by this channel's fault models (loss, delay and
    /// duplication draws). Zero for [`FaultProfile::none`] — the
    /// telemetry-visible form of the "zero draws on the null profile"
    /// guarantee.
    pub rng_draws: u64,
}

impl ChannelStats {
    /// Fraction of sent payloads that never arrived.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }

    /// Mean primary-copy delivery latency, seconds.
    pub fn mean_delay_s(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay_sum_s / self.delivered as f64
        }
    }

    /// Accounting invariant: every sent payload is delivered, lost, or
    /// still pending (in flight or awaiting a retry).
    pub fn accounted(&self, pending: u64) -> bool {
        self.sent == self.delivered + self.lost + pending
    }
}

/// One payload that made it through the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery<T> {
    /// The transported payload.
    pub payload: T,
    /// When the application sent it, seconds.
    pub sent_at: f64,
    /// When it arrived, seconds (`poll` time ≥ this).
    pub delivered_at: f64,
    /// Whether this is a duplicate copy of an already-counted delivery.
    pub duplicate: bool,
}

/// A retransmission waiting for its backoff to elapse. Carries the
/// sender's declared position so regional outages keep applying to
/// retries (the node is assumed stationary relative to the base-station
/// coverage area over a backoff interval).
#[derive(Debug, Clone)]
struct PendingRetry<T> {
    due: f64,
    seq: u64,
    sent_at: f64,
    attempt: u32,
    pos: Option<Point>,
    payload: T,
}

/// A copy in flight toward the server.
#[derive(Debug, Clone)]
struct InFlight<T> {
    due: f64,
    seq: u64,
    sent_at: f64,
    duplicate: bool,
    payload: T,
}

/// The faulty uplink: accepts payloads at send time, applies the
/// profile's loss/delay/duplication/outage/retry models, and surfaces
/// deliveries when polled. Fully deterministic given `(profile, seed)`
/// and the caller-supplied clock.
///
/// Time must advance monotonically across `send`/`poll` calls; sends at
/// equal times are processed (and, delays being equal, delivered) in call
/// order, tie-broken by an internal sequence number.
#[derive(Debug, Clone)]
pub struct FaultyChannel<T> {
    profile: FaultProfile,
    rng: SmallRng,
    /// Gilbert–Elliott link state (`true` = bad / fading).
    ge_bad: bool,
    next_seq: u64,
    retries: Vec<PendingRetry<T>>,
    in_flight: Vec<InFlight<T>>,
    stats: ChannelStats,
}

impl<T: Clone> FaultyChannel<T> {
    /// Creates a channel. Panics on an invalid profile — construct
    /// profiles through [`FaultProfile::validate`]-checked paths when the
    /// values are untrusted.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        profile.validate().expect("valid fault profile");
        FaultyChannel {
            profile,
            rng: SmallRng::seed_from_u64(seed),
            ge_bad: false,
            next_seq: 0,
            retries: Vec::new(),
            in_flight: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Delivery/loss/retry accounting so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Payloads neither delivered nor declared lost yet (in flight or
    /// awaiting a retransmission). Duplicate copies are not counted.
    pub fn pending(&self) -> u64 {
        self.retries.len() as u64 + self.in_flight.iter().filter(|f| !f.duplicate).count() as u64
    }

    /// Hands one payload to the channel at time `now`. The first
    /// transmission attempt happens immediately; the payload surfaces
    /// from a later [`poll`](Self::poll) (the same-call poll when both
    /// delay and faults are absent).
    ///
    /// Position-unaware: regional outages in the profile never apply to
    /// payloads sent this way. Use [`send_from`](Self::send_from) when
    /// the profile carries regional outages.
    pub fn send(&mut self, now: f64, payload: T) {
        self.stats.sent += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.transmit(now, seq, now, 0, None, payload);
    }

    /// [`send`](Self::send) with the sender's position declared, so
    /// regional outages can decide whether this transmission falls inside
    /// a failed base station's coverage. With no regional outages in the
    /// profile this is behaviorally identical to `send` — same RNG draw
    /// sequence, same delivery schedule.
    pub fn send_from(&mut self, now: f64, pos: Point, payload: T) {
        self.stats.sent += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.transmit(now, seq, now, 0, Some(pos), payload);
    }

    /// Advances the channel clock to `now`: due retransmissions are
    /// re-attempted (oldest first) and every copy whose latency has
    /// elapsed is returned, ordered by `(delivery time, send order)`.
    pub fn poll(&mut self, now: f64) -> Vec<Delivery<T>> {
        // Retries may themselves schedule deliveries due at or before
        // `now` (or further retries), so drain until quiescent — strictly
        // in `(due, seq)` order, which keeps the RNG draw sequence (and
        // the Gilbert–Elliott state) evolving in virtual-time order.
        let next_due = |retries: &[PendingRetry<T>]| {
            retries
                .iter()
                .enumerate()
                .filter(|(_, r)| r.due <= now)
                .min_by(|(_, a), (_, b)| {
                    a.due
                        .partial_cmp(&b.due)
                        .expect("finite retry times")
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i)
        };
        while let Some(idx) = next_due(&self.retries) {
            let r = self.retries.remove(idx);
            self.stats.retries += 1;
            self.transmit(r.due, r.seq, r.sent_at, r.attempt, r.pos, r.payload);
        }

        let mut due: Vec<InFlight<T>> = Vec::new();
        self.in_flight.retain_mut(|f| {
            if f.due <= now {
                due.push(InFlight {
                    due: f.due,
                    seq: f.seq,
                    sent_at: f.sent_at,
                    duplicate: f.duplicate,
                    payload: f.payload.clone(),
                });
                false
            } else {
                true
            }
        });
        due.sort_by(|a, b| {
            a.due
                .partial_cmp(&b.due)
                .expect("finite delivery times")
                .then(a.seq.cmp(&b.seq))
        });
        due.into_iter()
            .map(|f| {
                if f.duplicate {
                    self.stats.duplicates += 1;
                } else {
                    self.stats.delivered += 1;
                    self.stats.delay_sum_s += f.due - f.sent_at;
                }
                Delivery {
                    payload: f.payload,
                    sent_at: f.sent_at,
                    delivered_at: f.due,
                    duplicate: f.duplicate,
                }
            })
            .collect()
    }

    /// Closes the channel's books at end of run (`now` = the run's final
    /// clock): delivers every copy already due, then abandons the rest.
    /// Queued retries and primary copies still in flight past `now` could
    /// never have reached the server within the run, so they are counted
    /// **lost** — never delivered — and contribute nothing to the
    /// staleness sum. Afterwards `pending() == 0` and
    /// [`ChannelStats::accounted`]`(0)` holds.
    ///
    /// (An earlier version polled at the latest in-flight due time, which
    /// counted updates still pending at end-of-run — e.g. when the run
    /// ends mid-outage — as delivered, inflating both the delivery count
    /// and the mean staleness.)
    pub fn drain(&mut self, now: f64) -> Vec<Delivery<T>> {
        // No more transmissions happen after the run: every queued retry
        // is abandoned and its payload lost.
        self.stats.lost += self.retries.len() as u64;
        self.retries.clear();
        let out = self.poll(now);
        // Copies due after `now` never arrive. Duplicates are dropped
        // silently (their primary copy is already accounted).
        self.stats.lost += self.in_flight.iter().filter(|f| !f.duplicate).count() as u64;
        self.in_flight.clear();
        out
    }

    /// One wireless transmission attempt: outage check, loss draw, then
    /// either schedule the delivery (plus a possible duplicate) or a
    /// retry / terminal loss.
    fn transmit(
        &mut self,
        now: f64,
        seq: u64,
        sent_at: f64,
        attempt: u32,
        pos: Option<Point>,
        payload: T,
    ) {
        self.stats.transmissions += 1;
        let lost = if self.in_outage(now, pos) {
            // Certain loss: no RNG draw, so outage placement can't shift
            // the stochastic stream of the surrounding traffic.
            true
        } else {
            match self.profile.loss {
                LossModel::None => false,
                LossModel::Iid { p } => p > 0.0 && self.draw_bool(p),
                LossModel::GilbertElliott {
                    p_g2b,
                    p_b2g,
                    loss_good,
                    loss_bad,
                } => {
                    let flip = if self.ge_bad { p_b2g } else { p_g2b };
                    if flip > 0.0 && self.draw_bool(flip) {
                        self.ge_bad = !self.ge_bad;
                    }
                    let p = if self.ge_bad { loss_bad } else { loss_good };
                    p > 0.0 && self.draw_bool(p)
                }
            }
        };

        if lost {
            if attempt < self.profile.retry.max_retries {
                self.retries.push(PendingRetry {
                    due: now + self.profile.retry.backoff_s,
                    seq,
                    sent_at,
                    attempt: attempt + 1,
                    pos,
                    payload,
                });
            } else {
                self.stats.lost += 1;
            }
            return;
        }

        let delivery_due = now + self.draw_delay();
        self.in_flight.push(InFlight {
            due: delivery_due,
            seq,
            sent_at,
            duplicate: false,
            payload: payload.clone(),
        });
        if self.profile.duplicate_prob > 0.0 && self.draw_bool(self.profile.duplicate_prob) {
            let dup_due = now + self.draw_delay();
            self.in_flight.push(InFlight {
                due: dup_due,
                seq,
                sent_at,
                duplicate: true,
                payload,
            });
        }
    }

    /// One Bernoulli draw, counted in `stats.rng_draws`. Callers keep the
    /// `p > 0` short-circuit *outside*, so a degenerate probability costs
    /// no draw (preserving the null profile's zero-draw guarantee).
    fn draw_bool(&mut self, p: f64) -> bool {
        self.stats.rng_draws += 1;
        self.rng.gen_bool(p)
    }

    fn draw_delay(&mut self) -> f64 {
        match self.profile.delay {
            DelayModel::None => 0.0,
            DelayModel::Uniform { min_s, max_s } => {
                if max_s > min_s {
                    self.stats.rng_draws += 1;
                    self.rng.gen_range(min_s..max_s)
                } else {
                    min_s
                }
            }
        }
    }

    fn in_outage(&self, t: f64, pos: Option<Point>) -> bool {
        self.profile.outages.iter().any(|o| o.applies(t, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(
        ch: &mut FaultyChannel<u32>,
        sends: &[(f64, u32)],
        until: f64,
    ) -> Vec<Delivery<u32>> {
        let mut out = Vec::new();
        for &(t, p) in sends {
            ch.send(t, p);
            out.extend(ch.poll(t));
        }
        out.extend(ch.poll(until));
        out
    }

    #[test]
    fn fault_free_profile_is_passthrough() {
        let mut ch = FaultyChannel::new(FaultProfile::none(), 7);
        let got = collect(&mut ch, &[(0.0, 1), (0.0, 2), (1.0, 3)], 10.0);
        let payloads: Vec<u32> = got.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, vec![1, 2, 3]);
        for d in &got {
            assert_eq!(d.sent_at, d.delivered_at);
            assert!(!d.duplicate);
        }
        let s = ch.stats();
        assert_eq!((s.sent, s.delivered, s.lost, s.retries), (3, 3, 0, 0));
        assert_eq!(s.transmissions, 3);
        assert!(s.accounted(ch.pending()));
    }

    #[test]
    fn same_seed_reproduces_identical_schedule() {
        let profile = FaultProfile {
            loss: LossModel::Iid { p: 0.3 },
            delay: DelayModel::Uniform {
                min_s: 0.1,
                max_s: 2.0,
            },
            duplicate_prob: 0.2,
            outages: vec![Outage::window(3.0, 5.0)],
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.5,
            },
        };
        let sends: Vec<(f64, u32)> = (0..200).map(|i| (i as f64 * 0.1, i)).collect();
        let mut a = FaultyChannel::new(profile.clone(), 42);
        let mut b = FaultyChannel::new(profile, 42);
        let ga = collect(&mut a, &sends, 100.0);
        let gb = collect(&mut b, &sends, 100.0);
        assert_eq!(ga, gb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().lost > 0 || a.stats().retries > 0, "faults fired");
    }

    #[test]
    fn iid_loss_rate_is_roughly_p() {
        let mut ch = FaultyChannel::new(FaultProfile::iid_loss(0.25), 9);
        for i in 0..4000 {
            ch.send(i as f64, i);
        }
        ch.poll(1e9);
        let s = ch.stats();
        let frac = s.loss_fraction();
        assert!((frac - 0.25).abs() < 0.03, "loss fraction {frac}");
        assert!(s.accounted(ch.pending()));
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare burst structure at matched average loss: G-E losses
        // must clump into longer runs than i.i.d. losses do.
        let run_lengths = |profile: FaultProfile| -> f64 {
            let mut ch = FaultyChannel::new(profile, 11);
            let mut runs = Vec::new();
            let mut cur = 0u32;
            for i in 0..20_000 {
                let before = ch.stats().lost;
                ch.send(i as f64, i);
                if ch.stats().lost > before {
                    cur += 1;
                } else if cur > 0 {
                    runs.push(cur);
                    cur = 0;
                }
            }
            if cur > 0 {
                runs.push(cur);
            }
            let total: u32 = runs.iter().sum();
            total as f64 / runs.len() as f64
        };
        // Stationary bad fraction 0.1/(0.1+0.9)... with p_g2b=0.02,
        // p_b2g=0.25 the chain is bad ~7.4% of the time; loss_bad=0.9
        // gives ~6.7% average loss with mean burst ≈ 1/p_b2g·0.9.
        let ge = run_lengths(FaultProfile {
            loss: LossModel::GilbertElliott {
                p_g2b: 0.02,
                p_b2g: 0.25,
                loss_good: 0.0,
                loss_bad: 0.9,
            },
            ..FaultProfile::none()
        });
        let iid = run_lengths(FaultProfile::iid_loss(0.067));
        assert!(
            ge > iid * 1.5,
            "G-E mean run {ge} should exceed i.i.d. mean run {iid}"
        );
    }

    #[test]
    fn delay_bounds_and_reordering() {
        let mut ch = FaultyChannel::new(
            FaultProfile {
                delay: DelayModel::Uniform {
                    min_s: 0.5,
                    max_s: 4.0,
                },
                ..FaultProfile::none()
            },
            3,
        );
        for i in 0..500 {
            ch.send(i as f64 * 0.2, i);
        }
        let got = ch.poll(1e9);
        assert_eq!(got.len(), 500);
        let mut reordered = false;
        let mut last_sent = f64::NEG_INFINITY;
        for d in &got {
            let lat = d.delivered_at - d.sent_at;
            assert!((0.5..4.0).contains(&lat), "latency {lat}");
            if d.sent_at < last_sent {
                reordered = true;
            }
            last_sent = last_sent.max(d.sent_at);
        }
        assert!(
            reordered,
            "a 3.5 s delay spread over 0.2 s sends must reorder"
        );
        // Deliveries themselves surface in delivery-time order.
        let mut prev = f64::NEG_INFINITY;
        for d in &got {
            assert!(d.delivered_at >= prev);
            prev = d.delivered_at;
        }
    }

    #[test]
    fn duplicates_are_flagged_and_counted() {
        let mut ch = FaultyChannel::new(
            FaultProfile {
                duplicate_prob: 1.0,
                ..FaultProfile::none()
            },
            5,
        );
        ch.send(0.0, 77);
        let got = ch.poll(0.0);
        assert_eq!(got.len(), 2);
        assert!(!got[0].duplicate);
        assert!(got[1].duplicate);
        assert_eq!(got[0].payload, got[1].payload);
        let s = ch.stats();
        assert_eq!((s.delivered, s.duplicates), (1, 1));
        assert!(s.accounted(ch.pending()));
    }

    #[test]
    fn outage_loses_every_transmission_without_rng() {
        let profile = FaultProfile {
            outages: vec![Outage::window(10.0, 20.0)],
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send(9.9, 1); // before
        ch.send(10.0, 2); // start is inclusive
        ch.send(15.0, 3); // inside
        ch.send(20.0, 4); // end is exclusive
        let got = ch.poll(30.0);
        let payloads: Vec<u32> = got.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, vec![1, 4]);
        assert_eq!(ch.stats().lost, 2);
    }

    #[test]
    fn retry_redelivers_after_outage() {
        let profile = FaultProfile {
            outages: vec![Outage::window(0.0, 5.0)],
            retry: RetryPolicy {
                max_retries: 10,
                backoff_s: 1.0,
            },
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send(2.0, 42);
        assert!(ch.poll(4.9).is_empty(), "still in outage");
        let got = ch.poll(10.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 42);
        assert_eq!(got[0].sent_at, 2.0);
        // Attempts at 2, 3, 4 lost in the outage; 5.0 is past end.
        assert_eq!(got[0].delivered_at, 5.0);
        let s = ch.stats();
        assert_eq!((s.retries, s.lost, s.delivered), (3, 0, 1));
        assert!((s.delay_sum_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let profile = FaultProfile {
            outages: vec![Outage::window(0.0, 100.0)],
            retry: RetryPolicy {
                max_retries: 3,
                backoff_s: 1.0,
            },
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send(0.0, 1);
        assert!(ch.poll(50.0).is_empty());
        let s = ch.stats();
        assert_eq!((s.transmissions, s.retries, s.lost), (4, 3, 1));
        assert!(s.accounted(ch.pending()));
    }

    #[test]
    fn drain_abandons_retries_and_undue_in_flight() {
        let profile = FaultProfile {
            delay: DelayModel::Uniform {
                min_s: 50.0,
                max_s: 60.0,
            },
            outages: vec![Outage::window(5.0, 1e18)],
            retry: RetryPolicy {
                max_retries: 1000,
                backoff_s: 1.0,
            },
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 2);
        ch.send(0.0, 1); // in flight, due in [50, 60) — past end of run
        ch.send(6.0, 2); // stuck retrying inside the endless outage
        assert!(ch.poll(10.0).is_empty());
        // The run ends at t = 10: neither payload ever reached the server,
        // so drain must count both lost, not pretend payload 1 arrived.
        let got = ch.drain(10.0);
        assert!(got.is_empty());
        let s = ch.stats();
        assert_eq!((s.delivered, s.lost), (0, 2));
        assert_eq!(s.delay_sum_s, 0.0, "no delivery, no staleness");
        assert_eq!(ch.pending(), 0);
        assert!(s.accounted(0));
    }

    #[test]
    fn drain_delivers_copies_already_due() {
        // Same shape but the run ends after the delayed copy's due time:
        // drain hands it over like a final poll would have.
        let profile = FaultProfile {
            delay: DelayModel::Uniform {
                min_s: 50.0,
                max_s: 60.0,
            },
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 2);
        ch.send(0.0, 1);
        let got = ch.drain(60.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 1);
        let s = ch.stats();
        assert_eq!((s.delivered, s.lost), (1, 0));
        assert!(s.delay_sum_s >= 50.0);
        assert!(s.accounted(0));
    }

    #[test]
    fn end_of_run_mid_outage_does_not_inflate_staleness() {
        // Regression: a run ending mid-outage used to poll at the latest
        // in-flight due time, booking the pending update as a delivery
        // with its full (post-run) latency. Mean staleness must reflect
        // only deliveries that happened within the run.
        let profile = FaultProfile {
            outages: vec![Outage::window(10.0, 1e18)],
            retry: RetryPolicy {
                max_retries: 1000,
                backoff_s: 5.0,
            },
            delay: DelayModel::Uniform {
                min_s: 0.5,
                max_s: 1.0,
            },
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 7);
        ch.send(0.0, 1);
        let ok = ch.poll(5.0);
        assert_eq!(ok.len(), 1, "pre-outage send delivers normally");
        let mean_before = ch.stats().mean_delay_s();
        ch.send(12.0, 2); // swallowed by the endless outage
        assert!(ch.poll(20.0).is_empty());
        let got = ch.drain(20.0);
        assert!(got.is_empty());
        let s = ch.stats();
        assert_eq!((s.delivered, s.lost), (1, 1));
        assert_eq!(s.mean_delay_s(), mean_before, "staleness unchanged");
        assert!(s.accounted(0));
    }

    #[test]
    fn null_profile_consumes_no_rng_draws() {
        let mut ch = FaultyChannel::new(FaultProfile::none(), 9);
        for t in 0..50 {
            ch.send(t as f64, t);
        }
        ch.poll(100.0);
        assert_eq!(ch.stats().rng_draws, 0);
    }

    #[test]
    fn faulty_profiles_report_rng_draw_counts() {
        let mut ch = FaultyChannel::new(FaultProfile::iid_loss(0.5), 3);
        for t in 0..20 {
            ch.send(t as f64, t);
        }
        // One loss draw per transmission, no delay/duplicate draws.
        assert_eq!(ch.stats().rng_draws, ch.stats().transmissions);
        let mut dup = FaultyChannel::new(
            FaultProfile {
                duplicate_prob: 0.5,
                delay: DelayModel::Uniform {
                    min_s: 0.1,
                    max_s: 0.2,
                },
                ..FaultProfile::none()
            },
            4,
        );
        dup.send(0.0, 1);
        // Duplicate draw + at least one delay draw for the primary copy.
        assert!(dup.stats().rng_draws >= 2, "{}", dup.stats().rng_draws);
    }

    #[test]
    fn regional_outage_only_hits_senders_inside_the_region() {
        let region = Rect::from_coords(100.0, 100.0, 200.0, 200.0);
        let profile = FaultProfile {
            outages: vec![Outage::regional(10.0, 20.0, region)],
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send_from(15.0, Point::new(150.0, 150.0), 1); // inside: lost
        ch.send_from(15.0, Point::new(50.0, 150.0), 2); // outside: delivered
        ch.send_from(5.0, Point::new(150.0, 150.0), 3); // before window
        ch.send_from(20.0, Point::new(150.0, 150.0), 4); // end exclusive
        let got = ch.poll(30.0);
        let payloads: Vec<u32> = got.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, vec![3, 2, 4]);
        let s = ch.stats();
        assert_eq!((s.lost, s.delivered), (1, 3));
        // Certain loss: the regional check consumed no RNG draw.
        assert_eq!(s.rng_draws, 0);
    }

    #[test]
    fn regional_outage_region_edges_match_range_query_semantics() {
        // Min edge inclusive, max edge exclusive — same as range queries.
        let region = Rect::from_coords(100.0, 100.0, 200.0, 200.0);
        let profile = FaultProfile {
            outages: vec![Outage::regional(0.0, 100.0, region)],
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send_from(1.0, Point::new(100.0, 100.0), 1); // min corner: lost
        ch.send_from(2.0, Point::new(200.0, 150.0), 2); // max x edge: delivered
        ch.send_from(3.0, Point::new(150.0, 200.0), 3); // max y edge: delivered
        let got = ch.poll(50.0);
        let payloads: Vec<u32> = got.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, vec![2, 3]);
        assert_eq!(ch.stats().lost, 1);
    }

    #[test]
    fn position_unaware_send_ignores_regional_outages() {
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let profile = FaultProfile {
            outages: vec![Outage::regional(0.0, 100.0, region)],
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send(10.0, 1);
        ch.send(50.0, 2);
        let got = ch.poll(200.0);
        assert_eq!(got.len(), 2, "plain send never matches a regional outage");
        assert_eq!(ch.stats().lost, 0);
    }

    #[test]
    fn send_from_is_bit_identical_to_send_without_regional_outages() {
        // The position argument must be inert when no outage carries a
        // region: same deliveries, same stats, same RNG draw count.
        let profile = FaultProfile {
            loss: LossModel::Iid { p: 0.3 },
            delay: DelayModel::Uniform {
                min_s: 0.1,
                max_s: 2.0,
            },
            duplicate_prob: 0.2,
            outages: vec![Outage::window(3.0, 5.0)],
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.5,
            },
        };
        let mut plain = FaultyChannel::new(profile.clone(), 42);
        let mut positioned = FaultyChannel::new(profile, 42);
        let mut got_plain = Vec::new();
        let mut got_positioned = Vec::new();
        for i in 0..200 {
            let t = i as f64 * 0.1;
            plain.send(t, i);
            positioned.send_from(t, Point::new(i as f64, i as f64), i);
            got_plain.extend(plain.poll(t));
            got_positioned.extend(positioned.poll(t));
        }
        got_plain.extend(plain.drain(100.0));
        got_positioned.extend(positioned.drain(100.0));
        assert_eq!(got_plain, got_positioned);
        assert_eq!(plain.stats(), positioned.stats());
    }

    #[test]
    fn regional_outage_applies_to_retries_at_the_senders_position() {
        // A retry re-attempts from the original position, so a retry due
        // inside the regional window is swallowed again; the first retry
        // past the window delivers.
        let region = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let profile = FaultProfile {
            outages: vec![Outage::regional(0.0, 5.0, region)],
            retry: RetryPolicy {
                max_retries: 10,
                backoff_s: 1.0,
            },
            ..FaultProfile::none()
        };
        let mut ch = FaultyChannel::new(profile, 1);
        ch.send_from(2.0, Point::new(50.0, 50.0), 42);
        assert!(ch.poll(4.9).is_empty(), "still inside the regional window");
        let got = ch.poll(10.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].delivered_at, 5.0);
        assert_eq!(ch.stats().retries, 3);
    }

    #[test]
    fn profile_validation_rejects_bad_outage_regions() {
        let bad_area = Rect::from_coords(10.0, 10.0, 10.0, 50.0);
        assert!(FaultProfile {
            outages: vec![Outage::regional(0.0, 10.0, bad_area)],
            ..FaultProfile::none()
        }
        .validate()
        .is_err());
        let non_finite = Rect {
            min: Point::new(0.0, 0.0),
            max: Point::new(f64::NAN, 100.0),
        };
        assert!(FaultProfile {
            outages: vec![Outage::regional(0.0, 10.0, non_finite)],
            ..FaultProfile::none()
        }
        .validate()
        .is_err());
        let fine = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        assert!(FaultProfile {
            outages: vec![Outage::regional(0.0, 10.0, fine)],
            ..FaultProfile::none()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn profile_validation_rejects_bad_values() {
        assert!(FaultProfile::iid_loss(1.5).validate().is_err());
        assert!(FaultProfile {
            duplicate_prob: -0.1,
            ..FaultProfile::none()
        }
        .validate()
        .is_err());
        assert!(FaultProfile {
            delay: DelayModel::Uniform {
                min_s: 3.0,
                max_s: 1.0
            },
            ..FaultProfile::none()
        }
        .validate()
        .is_err());
        assert!(FaultProfile {
            outages: vec![Outage::window(5.0, 5.0)],
            ..FaultProfile::none()
        }
        .validate()
        .is_err());
        assert!(FaultProfile {
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: f64::NAN
            },
            ..FaultProfile::none()
        }
        .validate()
        .is_err());
        assert!(FaultProfile::none().validate().is_ok());
    }
}
