//! Named cases for the edges a closed-form `safe_until` gets wrong
//! (DESIGN.md §13): each scripts a small world, runs the default
//! (kinetic) engine beside its sweep-every-round twin and a brute-force
//! world, compares all three every round, and — through the
//! `stepped` / `due_fired` / `due_stale` counts in `ShardStats` — checks
//! that the kinetic engine took the path the case is about rather than
//! quietly sweeping.
//!
//! Four queries make `side_for(4) = 8` columns and rows of 125 m over the
//! 1 km² space; every coordinate below is binary-exact.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{bounds, World};

/// The query under the microscope, `[250, 500) × [250, 500)`, plus three
/// that only fix the grid at 8 × 8 and give cells full covers.
fn four_queries() -> Vec<RangeQuery> {
    [
        Rect::from_coords(250.0, 250.0, 500.0, 500.0),
        Rect::from_coords(0.0, 0.0, 250.0, 1000.0),
        Rect::from_coords(125.0, 125.0, 875.0, 875.0),
        Rect::from_coords(625.0, 0.0, 1000.0, 1000.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, range)| RangeQuery {
        id: id as u32,
        range,
    })
    .collect()
}

/// `(stepped, due_fired, due_stale)` summed over the shards.
fn counts(server: &CqServer) -> (u64, u64, u64) {
    let stats = server.shard_stats();
    (
        stats.iter().map(|s| s.stepped).sum(),
        stats.iter().map(|s| s.due_fired).sum(),
        stats.iter().map(|s| s.due_stale).sum(),
    )
}

/// The kinetic engine, its sweeping twin and the brute-force world, fed
/// identically.
struct Trio {
    kinetic: CqServer,
    sweep: CqServer,
    world: World,
    queries: Vec<RangeQuery>,
    num_nodes: usize,
}

impl Trio {
    fn new(num_nodes: usize, queries: Vec<RangeQuery>) -> Self {
        let server = || {
            let mut s =
                CqServer::new(bounds(), num_nodes, 8).with_engine(common::unified_from_env(1));
            s.register_queries(queries.iter().copied());
            s
        };
        Trio {
            kinetic: server(),
            sweep: server().with_dirty_tracking(false),
            world: World::new(num_nodes),
            queries: queries.clone(),
            num_nodes,
        }
    }

    fn report(&mut self, node: u32, t: f64, pos: Point, vel: (f64, f64)) {
        self.kinetic.ingest(node, t, pos, vel);
        self.sweep.ingest(node, t, pos, vel);
        self.world.report(node, t, pos, vel);
    }

    fn remove(&mut self, node: u32) {
        self.kinetic.remove_node(node);
        self.sweep.remove_node(node);
        self.world.remove(node);
    }

    /// One round on all three; returns how many nodes the kinetic engine
    /// stepped in it.
    fn eval(&mut self, t: f64) -> u64 {
        let before = counts(&self.kinetic).0;
        let want = self.world.evaluate(&self.queries, t);
        assert_eq!(self.kinetic.evaluate(t), want, "kinetic at t={t}");
        assert_eq!(self.sweep.evaluate(t), want, "sweep at t={t}");
        counts(&self.kinetic).0 - before
    }

    /// Rounds at `t0 + dt, t0 + 2·dt, …`; returns the last `t` and how
    /// many nodes the kinetic engine stepped over all of them (a sweep
    /// would step `rounds × owned`).
    fn run(&mut self, t0: f64, dt: f64, rounds: usize) -> (f64, u64) {
        let mut stepped = 0;
        let mut t = t0;
        for _ in 0..rounds {
            t += dt;
            stepped += self.eval(t);
        }
        (t, stepped)
    }
}

#[test]
fn a_node_exactly_on_a_cell_edge_and_on_a_half_open_max_edge() {
    let mut trio = Trio::new(8, four_queries());
    let v = 6.25;
    // On the query's max-x edge (outside, half-open), moving in / out.
    trio.report(0, 0.0, Point::new(500.0, 300.0), (-v, 0.0));
    trio.report(1, 0.0, Point::new(500.0, 300.0), (v, 0.0));
    // On its min-x edge (inside), moving out / in.
    trio.report(2, 0.0, Point::new(250.0, 300.0), (-v, 0.0));
    trio.report(3, 0.0, Point::new(250.0, 300.0), (v, 0.0));
    // On a bare cell edge (375 = 3 · 125), both ways, and on a corner
    // where a cell edge and the query's max-y edge meet.
    trio.report(4, 0.0, Point::new(375.0, 300.0), (-v, 0.0));
    trio.report(5, 0.0, Point::new(375.0, 300.0), (v, 0.0));
    trio.report(6, 0.0, Point::new(375.0, 500.0), (-v, -v));
    trio.report(7, 0.0, Point::new(375.0, 500.0), (v, v));
    trio.eval(0.0);
    // The flips at an infinitesimal step are the whole point: node 0 is
    // in and node 2 is out at any t > 0.
    trio.eval(1e-9);
    trio.eval(2e-9);
    let (t, _) = trio.run(2e-9, 0.5, 8);
    // Whole seconds from here: every node sits exactly on a lattice
    // point, many on edges, at every round.
    let t = t.ceil();
    trio.eval(t);
    let (_, stepped) = trio.run(t, 1.0, 60);
    assert!(stepped < 60 * 8 / 2, "mostly skipping: {stepped} steps");
    assert!(
        counts(&trio.kinetic).1 > 0,
        "edges were crossed via the wheel"
    );
}

#[test]
fn zero_velocity_nodes_are_never_stepped_again() {
    let mut trio = Trio::new(6, four_queries());
    for n in 0..6u32 {
        // Some on edges, one outside the bounds.
        let p = Point::new(125.0 * n as f64 - 62.5, 250.0 + 62.5 * n as f64);
        trio.report(n, 0.0, p, (0.0, 0.0));
    }
    trio.eval(0.0); // rebuild
    assert_eq!(trio.eval(1.0), 6, "the scheduling sweep steps everyone");
    let (t, stepped) = trio.run(1.0, 1.0, 600); // past the ring's horizon too
    assert_eq!(stepped, 0, "a node that can reach nothing is never filed");
    assert_eq!(counts(&trio.kinetic).1, 0);
    // One of them starts moving: only it steps.
    trio.report(3, t, Point::new(312.5, 437.5), (12.5, 0.0));
    assert_eq!(trio.eval(t + 1.0), 1);
    trio.run(t + 1.0, 1.0, 40);
}

#[test]
fn axis_parallel_motion_along_an_edge() {
    let mut trio = Trio::new(6, four_queries());
    let v = 12.5;
    // Along the query's max-y edge (y = 500: outside all the way) and
    // its min-y edge (y = 250: inside while x is), both directions; the
    // same y values are cell edges (250 = 2 · 125, 500 = 4 · 125).
    trio.report(0, 0.0, Point::new(62.5, 500.0), (v, 0.0));
    trio.report(1, 0.0, Point::new(937.5, 500.0), (-v, 0.0));
    trio.report(2, 0.0, Point::new(62.5, 250.0), (v, 0.0));
    trio.report(3, 0.0, Point::new(937.5, 250.0), (-v, 0.0));
    // And along its x edges.
    trio.report(4, 0.0, Point::new(250.0, 937.5), (0.0, -v));
    trio.report(5, 0.0, Point::new(500.0, 62.5), (0.0, v));
    trio.eval(0.0);
    trio.eval(1.0); // schedules
    let (_, stepped) = trio.run(1.0, 1.0, 90);
    assert!(stepped < 90 * 6 / 2, "mostly skipping: {stepped} steps");
    trio.run(91.0, 0.25, 40);
}

#[test]
fn a_node_outside_the_bounds_is_clamped_into_a_border_cell_and_re_enters() {
    let mut trio = Trio::new(4, four_queries());
    // West and south of the space, heading in; east of it, heading
    // further out; inside, heading out through the north edge.
    trio.report(0, 0.0, Point::new(-250.0, 312.5), (12.5, 0.0));
    trio.report(1, 0.0, Point::new(312.5, -125.0), (0.0, 6.25));
    trio.report(2, 0.0, Point::new(1062.5, 62.5), (6.25, 0.0));
    trio.report(3, 0.0, Point::new(687.5, 937.5), (0.0, 12.5));
    trio.eval(0.0);
    trio.eval(1.0); // schedules
    let (_, stepped) = trio.run(1.0, 1.0, 119);
    assert!(stepped < 119 * 4 / 2, "mostly skipping: {stepped} steps");
    // A border cell's outer edge is at infinity: left alone, the node
    // heading away east can reach nothing and never fires again.
    trio.remove(0);
    trio.remove(1);
    trio.remove(3);
    trio.run(120.0, 1.0, 20);
    let fired = counts(&trio.kinetic).1;
    let (_, stepped) = trio.run(140.0, 1.0, 700);
    assert_eq!(stepped, 0);
    assert_eq!(counts(&trio.kinetic).1, fired);
}

#[test]
fn a_second_evaluation_at_the_same_advancing_t_steps_nothing() {
    let mut trio = Trio::new(8, four_queries());
    for n in 0..8u32 {
        let p = Point::new(62.5 + 125.0 * n as f64, 312.5);
        trio.report(n, 0.0, p, (-12.5, 6.25));
    }
    trio.eval(0.0);
    let mut t = 0.0;
    for round in 0..40 {
        t += 1.0;
        trio.eval(t);
        let before = counts(&trio.kinetic);
        assert_eq!(
            trio.eval(t),
            0,
            "round {round}: due(t) is empty at t == last_t"
        );
        assert_eq!(counts(&trio.kinetic), before, "no entry fired or dropped");
        if round % 7 == 3 {
            // A re-report between the two is the only thing that steps.
            trio.report(2, t, Point::new(437.5, 437.5), (6.25, -12.5));
            assert_eq!(trio.eval(t), 1);
        }
    }
}

#[test]
fn a_re_report_between_filing_and_firing_leaves_a_stale_entry() {
    let mut trio = Trio::new(12, four_queries());
    // Slow: first event (the cell edge at x = 375) is 200 s away.
    trio.report(0, 0.0, Point::new(312.5, 312.5), (0.3125, 0.0));
    // Parked company, so that one due node is not "most of the fleet"
    // (a round that busy would sweep instead of asking the wheel).
    for n in 1..12u32 {
        trio.report(n, 0.0, Point::new(62.5 * n as f64, 812.5), (0.0, 0.0));
    }
    trio.eval(0.0);
    trio.eval(1.0); // schedules: node 0 filed ~200 s out
    trio.run(1.0, 1.0, 5);
    // Re-reports much faster: the event is now 10 s away, so a second,
    // earlier entry is filed and the first is left behind.
    trio.report(0, 6.0, Point::new(312.5, 312.5), (6.25, 0.0));
    trio.run(6.0, 1.0, 5);
    // …and slower again before that fires: the earlier entry simply
    // fires early, finds nothing changed and re-files (no third entry).
    trio.report(0, 11.0, Point::new(343.75, 312.5), (0.3125, 0.0));
    let (t, stepped) = trio.run(11.0, 1.0, 240);
    assert!(
        stepped < 12,
        "one node, a handful of events: {stepped} steps"
    );
    let (_, fired, stale) = counts(&trio.kinetic);
    assert!(stale >= 1, "the superseded entry is dropped on pop");
    assert!(fired >= 2, "the live ones fired");
    // Removal also leaves the entry behind to be dropped.
    trio.remove(0);
    trio.run(t, 1.0, 600);
    assert!(counts(&trio.kinetic).2 > stale);
}

#[test]
fn time_running_backwards_and_a_jump_past_the_ring_take_the_sweep() {
    let mut trio = Trio::new(8, four_queries());
    for n in 0..8u32 {
        let p = Point::new(62.5 + 125.0 * n as f64, 187.5 + 62.5 * n as f64);
        trio.report(n, 0.0, p, (3.125, -3.125));
    }
    trio.eval(0.0);
    trio.eval(1.0); // schedules
    let (t, stepped) = trio.run(1.0, 1.0, 20);
    assert!(stepped < 20 * 8 / 2, "kinetic rounds: {stepped} steps");
    assert_eq!(trio.eval(t - 7.5), 8, "backwards: every owned node steps");
    let (t, stepped) = trio.run(t - 7.5, 1.0, 20);
    assert!(
        stepped < 20 * 8 / 2,
        "the wheel is usable again at once: {stepped}"
    );
    assert_eq!(trio.eval(t + 10_000.0), 8, "past the ring: a sweep");
    // Everyone has long left the space; bring them back and go on at the
    // old cadence, which the sweep after the jump must re-tune to.
    for n in 0..8u32 {
        let p = Point::new(937.5 - 125.0 * n as f64, 500.0);
        trio.report(n, t + 10_000.0, p, (-3.125, 1.5625));
    }
    trio.eval(t + 10_001.0);
    trio.eval(t + 10_002.0);
    let (_, stepped) = trio.run(t + 10_002.0, 1.0, 60);
    assert!(
        stepped < 60 * 8 / 2,
        "ticks re-sized from the new step: {stepped}"
    );
}

/// A sweep that does not file — here a backwards round right after a
/// sweep that saw a fifth of the fleet change cell — re-places nodes
/// behind the wheel's back, so the wheel must not be believed afterwards:
/// node 9 re-reports into that sweep and would never step into the query.
#[test]
fn a_sweep_that_does_not_file_leaves_no_wheel_behind() {
    let mut trio = Trio::new(10, four_queries());
    // Three nodes cross a cell a second, so the scheduling sweep at t = 1
    // finds 3 of 10 changed and the next sweep would not file; seven
    // stand still and are safe forever.
    for n in 0..3u32 {
        let p = Point::new(62.5, 62.5 + 125.0 * n as f64);
        trio.report(n, 0.0, p, (125.0, 0.0));
    }
    for n in 3..10u32 {
        trio.report(n, 0.0, Point::new(562.5, 62.5 * n as f64), (0.0, 0.0));
    }
    trio.eval(0.0);
    assert_eq!(trio.eval(1.0), 10, "the scheduling sweep");
    // Node 9 starts towards `[250, 500)²`, 10 m short of it.
    trio.report(9, 1.0, Point::new(240.0, 300.0), (12.5, 0.0));
    assert_eq!(trio.eval(0.5), 10, "backwards: a sweep, and not a calm one");
    assert_eq!(trio.eval(1.5), 10, "nothing was filed, so this sweeps too");
    let (_, stepped) = trio.run(1.5, 1.0, 30); // node 9 crosses the query
    assert!(stepped < 30 * 10 / 2, "kinetic again: {stepped} steps");
}

#[test]
fn a_cloned_server_continues_bit_identically() {
    let mut trio = Trio::new(12, four_queries());
    let mut rng = SmallRng::seed_from_u64(11);
    for n in 0..12u32 {
        let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
        trio.report(
            n,
            0.0,
            p,
            (rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0)),
        );
    }
    trio.eval(0.0);
    trio.run(0.0, 1.0, 15);
    let mut twin = trio.kinetic.clone();
    let shape = |s: &CqServer| -> Vec<(usize, usize, u64, u64, u64, u64)> {
        s.shard_stats()
            .iter()
            .map(|st| {
                (
                    st.shard,
                    st.nodes,
                    st.handoffs,
                    st.stepped,
                    st.due_fired,
                    st.due_stale,
                )
            })
            .collect()
    };
    let mut t = 15.0;
    for round in 0..80 {
        if round % 5 == 0 {
            let n = rng.gen_range(0..12u32);
            let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let v = (rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0));
            trio.report(n, t, p, v);
            twin.ingest(n, t, p, v);
        }
        t += 1.0;
        trio.eval(t);
        assert_eq!(twin.evaluate(t), trio.kinetic.evaluate(t), "round {round}");
        // The second evaluate above steps nothing, so the twin saw the
        // same rounds: same wheel, same entries fired and dropped.
        assert_eq!(twin.evaluate(t), trio.kinetic.evaluate(t));
        assert_eq!(shape(&twin), shape(&trio.kinetic), "round {round}");
    }
}

#[test]
fn a_long_run_wraps_the_ring_and_spreads_the_far_nodes() {
    // Slow nodes are safe for longer than the ring reaches (512 rounds):
    // they are filed inside it, spread over its far half by id, fire with
    // nothing changed and re-file, turn after turn of the ring.
    let n = 24u32;
    let mut trio = Trio::new(n as usize, four_queries());
    for i in 0..n {
        let p = Point::new(31.25 + 40.0 * i as f64, 968.75 - 40.0 * i as f64);
        let slow = 0.015625 * (1 + i % 3) as f64;
        let v = if i % 4 == 0 {
            (3.125, -1.5625)
        } else {
            (slow, -slow)
        };
        trio.report(i, 0.0, p, v);
    }
    trio.eval(0.0);
    trio.eval(1.0); // schedules
    let mut most = 0;
    for round in 2..1700 {
        most = most.max(trio.eval(round as f64));
    }
    assert!(
        most < n as u64 / 2,
        "never more than a few per round: {most}"
    );
    let (stepped, fired, _) = counts(&trio.kinetic);
    assert!(fired > 18, "each far node came back at least once: {fired}");
    assert!(
        stepped < 60 * n as u64,
        "…and only every few hundred rounds: {stepped}"
    );
}

/// A few thousand nodes at arbitrary (non-lattice) coordinates, the
/// scale at which buckets, stale entries and batched member-list edits
/// are all exercised in every round: kinetic ≡ sweep ≡ brute force.
#[test]
fn a_dense_random_world_stays_identical_round_for_round() {
    let num = 3000usize;
    let mut rng = SmallRng::seed_from_u64(5);
    let queries: Vec<RangeQuery> = (0..40u32)
        .map(|id| {
            let (x, y) = (rng.gen_range(-50.0..900.0), rng.gen_range(-50.0..900.0));
            let (w, h) = (rng.gen_range(20.0..300.0), rng.gen_range(20.0..300.0));
            RangeQuery {
                id,
                range: Rect::from_coords(x, y, x + w, y + h),
            }
        })
        .collect();
    let mut trio = Trio::new(num, queries);
    let fresh = |rng: &mut SmallRng| {
        (
            Point::new(rng.gen_range(-30.0..1030.0), rng.gen_range(-30.0..1030.0)),
            (rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)),
        )
    };
    for n in 0..num as u32 {
        let (p, v) = fresh(&mut rng);
        trio.report(n, 0.0, p, v);
    }
    trio.eval(0.0);
    let mut t = 0.0;
    let mut kinetic_rounds = 0;
    for round in 0..150 {
        for _ in 0..30 {
            let n = rng.gen_range(0..num as u32);
            if rng.gen_range(0..10) == 0 {
                trio.remove(n);
            } else {
                let (p, v) = fresh(&mut rng);
                trio.report(n, t, p, v);
            }
        }
        t += if round % 40 == 39 { 0.001 } else { 1.0 };
        if (trio.eval(t) as usize) < trio.num_nodes / 2 {
            kinetic_rounds += 1;
        }
    }
    assert!(
        kinetic_rounds > 140,
        "{kinetic_rounds} of 150 rounds skipped work"
    );
}
