//! Overload adaptation: THROTLOOP closing the loop (Section 3.4).
//!
//! The CQ server's update queue has finite capacity and a fixed service
//! rate. A traffic surge doubles the fleet mid-run; THROTLOOP observes the
//! queue's arrival/service rates every adaptation window, recomputes the
//! throttle fraction z, and LIRA re-plans the shedding regions so the
//! queue never clogs. The example prints a timeline of λ, z, and drops.
//!
//! Run with: `cargo run --release --example overload_adaptation`

use lira::prelude::*;

/// Updates/second the server can process.
const SERVICE_RATE: f64 = 120.0;
/// Input queue capacity B.
const QUEUE_CAPACITY: usize = 500;
/// Seconds per THROTLOOP adaptation window.
const WINDOW_S: f64 = 20.0;

fn main() -> Result<()> {
    let net_cfg = NetworkConfig::small(11);
    let bounds = net_cfg.bounds;
    let network = generate_network(&net_cfg);
    let demand = TrafficDemand::random_hotspots(&bounds, 3, 11);
    let mut sim = TrafficSimulator::new(
        network,
        &demand,
        TrafficConfig {
            num_cars: 600,
            seed: 11,
        },
    );

    let mut config = LiraConfig::default();
    config.bounds = bounds;
    config = config.with_regions(25);
    let shedder = LiraShedder::new(config.clone(), QUEUE_CAPACITY)?;

    let mut grid = StatsGrid::new(config.alpha, bounds)?;
    // The server's one input queue, with THROTLOOP over it.
    let mut governor: Governor<MotionReport> =
        Governor::new(QUEUE_CAPACITY, 1, SERVICE_RATE, 1).map_err(LiraError::InvalidConfig)?;
    let mut reckoners = vec![DeadReckoner::new(); sim.cars().len()];
    let mut plan = SheddingPlan::uniform(bounds, config.delta_min);

    println!("service capacity: {SERVICE_RATE} upd/s | queue B = {QUEUE_CAPACITY}");
    println!("\n  time |  cars |  λ (upd/s) |     z | queue | dropped");
    println!("-------+-------+------------+-------+-------+--------");

    for window in 0..12 {
        // A traffic surge: the fleet grows by 50% at t = 80 s and again at
        // t = 160 s (modeled by shrinking every node's threshold budget —
        // we scale λ by replaying updates multiple times).
        let surge_factor: usize = match window {
            0..=3 => 1,
            4..=7 => 2,
            _ => 3,
        };

        for _ in 0..WINDOW_S as usize {
            sim.step(1.0);
            let t = sim.time();
            for (i, car) in sim.cars().iter().enumerate() {
                let delta = plan.throttler_at(&car.position());
                if let Some(rep) =
                    reckoners[i].observe(i as u32, t, car.position(), car.velocity(), delta)
                {
                    // The surge: each physical update stands for
                    // `surge_factor` nodes' worth of load.
                    for _ in 0..surge_factor {
                        governor.offer_at(0, t, rep);
                    }
                }
            }
            // The server drains at its fixed service rate.
            drop(governor.service_at(0, SERVICE_RATE as usize));
        }

        // End of window: THROTLOOP observes and LIRA re-plans.
        let decision = governor.close_window(sim.time(), WINDOW_S);
        grid.begin_snapshot();
        for car in sim.cars() {
            grid.observe_node(&car.position(), car.speed(), surge_factor as f64);
        }
        grid.commit_snapshot();
        plan = shedder.adapt_with_throttle(&grid, decision.throttle)?.plan;

        println!(
            "{:>5.0}s | {:>5} | {:>10.1} | {:>5.3} | {:>5} | {:>7}",
            decision.time,
            sim.cars().len() * surge_factor,
            decision.arrival_rate,
            decision.throttle,
            decision.queue_len,
            decision.dropped,
        );
    }

    println!(
        "\nTHROTLOOP settled at z = {:.3}; total drops {} of {} arrivals ({:.2}%).",
        governor.throttle(),
        governor.dropped(),
        governor.arrived(),
        100.0 * governor.drop_fraction()
    );
    println!("Each surge causes one burst of drops; the controller then cuts z until the");
    println!("source-side budget absorbs the load and the queue stops overflowing.");
    Ok(())
}
