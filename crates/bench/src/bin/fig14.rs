//! Figure 14: server-side cost of configuring LIRA — wall-clock time of
//! one adaptation step (THROTLOOP + GRIDREDUCE + GREEDYINCREMENT) as a
//! function of the number of shedding regions l, for different statistics
//! grid resolutions α.
//!
//! Paper reference points (2.4 GHz Pentium 4, Java): ~40 ms at l = 250,
//! α = 128; ~500 ms at l = 4000, α = 512. Absolute numbers here will be
//! much lower (native code, modern CPU); the *shape* — cost dominated by
//! the O(α²) stage with a mild O(l·log l) term — is the reproduction
//! target.

use std::time::Instant;

use lira_core::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a paper-scale statistics grid with hotspot-skewed load.
fn build_grid(alpha: usize, bounds: Rect, seed: u64) -> StatsGrid {
    let mut grid = StatsGrid::new(alpha, bounds).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    grid.begin_snapshot();
    for _ in 0..10_000 {
        // Mixture: 3 hotspots + uniform background.
        let (cx, cy, sigma) = match rng.gen_range(0..4) {
            0 => (0.3, 0.3, 0.05),
            1 => (0.7, 0.6, 0.08),
            2 => (0.2, 0.8, 0.04),
            _ => (0.5, 0.5, 0.5),
        };
        let x = (cx + sigma * (rng.gen::<f64>() - 0.5)).clamp(0.0, 0.999);
        let y = (cy + sigma * (rng.gen::<f64>() - 0.5)).clamp(0.0, 0.999);
        grid.observe_node(
            &Point::new(x * bounds.width(), y * bounds.height()),
            rng.gen_range(3.0..30.0),
            1.0,
        );
    }
    for _ in 0..100 {
        let x = rng.gen_range(0.0..0.9) * bounds.width();
        let y = rng.gen_range(0.0..0.9) * bounds.height();
        grid.observe_query(&Rect::from_coords(x, y, x + 1000.0, y + 1000.0));
    }
    grid.commit_snapshot();
    grid
}

fn main() {
    let bounds = Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0);
    println!("== fig14: server-side cost of one adaptation step");
    println!("10 000 nodes, 100 queries, paper-scale space (~200 km²)\n");

    let alphas = [64usize, 128, 256, 512];
    let ls = [25usize, 100, 250, 1000, 4000];
    print!("     l |");
    for a in alphas {
        print!("  α = {a:<4} |");
    }
    println!();
    println!("{}", "-".repeat(8 + alphas.len() * 12));

    for &l in &ls {
        print!("{l:>6} |");
        for &alpha in &alphas {
            if l > alpha * alpha {
                print!(" {:>9} |", "n/a");
                continue;
            }
            let grid = build_grid(alpha, bounds, 7);
            let mut config = LiraConfig::default();
            config.bounds = bounds;
            config.num_regions = l;
            config.alpha = alpha;
            let shedder = LiraShedder::new(config).unwrap();
            // Warm up once, then report the median of 5 runs.
            let _ = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
            let mut times: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    let a = shedder.adapt_with_throttle(&grid, 0.5).unwrap();
                    std::hint::black_box(a.plan.len());
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            print!(" {:>7.2}ms |", times[2]);
        }
        println!();
    }

    println!();
    println!("paper reference: 40 ms at (l = 250, α = 128) and 500 ms at (l = 4000,");
    println!("α = 512) on 2007 hardware/Java. shape to check: cost grows with α² and");
    println!("mildly with l; adaptation stays a negligible fraction of any realistic");
    println!("adaptation period (minutes).");
}
