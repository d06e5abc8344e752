//! Standing regression battery for the adversarial scenario catalog
//! (docs/SCENARIOS.md): every named scenario must stay (1) valid at both
//! scales, (2) bit-for-bit deterministic — same seed ⇒ identical traffic
//! traces and identical `RunReport`s across repeated runs *and* across
//! sequential vs parallel policy lanes — and (3) pinned to golden
//! admitted/shed/accuracy tuples at the tiny scale, so a refactor that
//! silently changes what any scenario simulates fails loudly here.
//!
//! Everything is seeded; a failure is a regression, not flake.

use lira::prelude::*;
use proptest::prelude::*;

/// Full bitwise comparison of two run reports (the wall-clock
/// `adapt_micros` values are excluded; their count must still agree).
fn assert_reports_identical(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.reference_updates, b.reference_updates, "{ctx}");
    assert_eq!(a.num_queries, b.num_queries, "{ctx}");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{ctx}");
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        let ctx = format!("{ctx}/{}", oa.policy.name());
        assert_eq!(oa.policy, ob.policy, "{ctx}");
        assert_eq!(oa.metrics, ob.metrics, "{ctx}: metrics diverged");
        assert_eq!(oa.faults, ob.faults, "{ctx}: fault books diverged");
        assert_eq!(oa.updates_sent, ob.updates_sent, "{ctx}");
        assert_eq!(oa.updates_processed, ob.updates_processed, "{ctx}");
        assert_eq!(
            oa.processed_fraction.to_bits(),
            ob.processed_fraction.to_bits(),
            "{ctx}"
        );
        assert_eq!(oa.shed_skew.to_bits(), ob.shed_skew.to_bits(), "{ctx}");
        assert_eq!(oa.plan_skew.to_bits(), ob.plan_skew.to_bits(), "{ctx}");
        assert_eq!(oa.plan_regions, ob.plan_regions, "{ctx}");
        assert_eq!(oa.adapt_micros.len(), ob.adapt_micros.len(), "{ctx}");
    }
}

#[test]
fn catalog_names_are_unique_and_victims_are_real_policies() {
    // The exp_scenarios floor: the catalog must keep at least five named
    // scenarios, each with a unique kebab-case name, a non-empty stress
    // description, and an expected victim drawn from the actual roster.
    assert!(NamedScenario::ALL.len() >= 5);
    let policy_names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
    let mut seen = Vec::new();
    for named in NamedScenario::ALL {
        let name = named.name();
        assert!(!seen.contains(&name), "duplicate scenario name {name}");
        seen.push(name);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "{name} is not kebab-case"
        );
        assert!(!named.stresses().is_empty(), "{name} has no stress note");
        assert!(
            policy_names.contains(&named.expected_victim()),
            "{name} expects to hurt unknown policy {}",
            named.expected_victim()
        );
    }
}

#[test]
fn every_catalog_scenario_validates_at_both_scales() {
    for named in NamedScenario::ALL {
        named
            .scenario(3)
            .validate()
            .unwrap_or_else(|e| panic!("{} full scale: {e}", named.name()));
        named
            .tiny(3)
            .validate()
            .unwrap_or_else(|e| panic!("{} tiny scale: {e}", named.name()));
    }
}

#[test]
fn every_scenario_records_the_same_trace_for_the_same_seed() {
    // The trace level of the determinism contract: demand phases, fleet
    // scaling, and dead-zone carving must all replay identically.
    for named in NamedScenario::ALL {
        let sc = named.tiny(31);
        let mut s1 = SimSetup::build(&sc, false);
        let mut s2 = SimSetup::build(&sc, false);
        let t1 = s1.record_trace(&sc);
        let t2 = s2.record_trace(&sc);
        assert_eq!(t1.ticks(), t2.ticks(), "{}", named.name());
        assert_eq!(t1.num_cars(), t2.num_cars(), "{}", named.name());
        for tick in 0..=t1.ticks() {
            assert_eq!(
                t1.cars(tick),
                t2.cars(tick),
                "{} diverged at tick {tick}",
                named.name()
            );
        }
    }
}

#[test]
fn every_scenario_is_bit_identical_across_repeats_and_lane_modes() {
    // The report level of the contract. Two policies so each run spawns
    // more than one lane thread, scheduled as the host pleases.
    let policies = [Policy::Lira, Policy::RandomDrop];
    for named in NamedScenario::ALL {
        let sc = named.tiny(9);
        let first = SimPipeline::new().run(&sc, &policies);
        let again = SimPipeline::new().run(&sc, &policies);
        assert_reports_identical(&first, &again, &format!("{} repeat", named.name()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized extension of the determinism battery: any catalog
    /// scenario under any seed reproduces bit for bit.
    #[test]
    fn any_catalog_scenario_under_any_seed_reproduces(
        idx in 0usize..NamedScenario::ALL.len(),
        seed in 0u64..512,
    ) {
        let named = NamedScenario::ALL[idx];
        let sc = named.tiny(seed);
        let a = run_scenario(&sc, &[Policy::Lira]);
        let b = run_scenario(&sc, &[Policy::Lira]);
        assert_reports_identical(&a, &b, &format!("{} seed {seed}", named.name()));
    }
}

/// Golden expectations per policy: `(sent, processed, E^C_rr, E^P_rr)`.
type Golden = (u64, u64, f64, f64);

/// Runs `named` at the tiny scale under the battery seed (42, matching
/// `exp_scenarios --quick`) and pins each policy's admitted/shed volume
/// and accuracy against hand-checked golden values.
fn assert_golden(named: NamedScenario, golden: [Golden; 6]) {
    let sc = named.tiny(42);
    let report = run_scenario(&sc, &Policy::ALL);
    for (policy, (sent, processed, containment, position)) in Policy::ALL.iter().zip(golden) {
        let o = report.outcome(*policy).expect("policy ran");
        let ctx = format!("{}/{}", named.name(), policy.name());
        assert_eq!(o.updates_sent, sent, "{ctx}: updates_sent");
        assert_eq!(o.updates_processed, processed, "{ctx}: updates_processed");
        assert!(
            (o.metrics.mean_containment - containment).abs() < 1e-9,
            "{ctx}: E^C_rr {} vs golden {containment}",
            o.metrics.mean_containment
        );
        assert!(
            (o.metrics.mean_position - position).abs() < 1e-6,
            "{ctx}: E^P_rr {} vs golden {position}",
            o.metrics.mean_position
        );
    }
}

// Golden tuples harvested from a verified run and hand-checked for
// plausibility: source-actuated policies process everything they send;
// Random Drop sends ~the reference volume but processes ~z of it; the
// regional blackout is the only scenario where source-actuated sends
// outnumber processed updates (outage losses); LIRA's containment error
// stays an order of magnitude below Random Drop's everywhere. The two
// utility policies land in the source-actuated band (sends within ~10%
// of LIRA's) with position error between LIRA's and Uniform Delta's in
// most scenarios; Utility Model even edges out LIRA on paper-world and
// heterogeneous-fleet at this scale.

#[test]
fn golden_paper_world() {
    assert_golden(
        NamedScenario::PaperWorld,
        [
            (1092, 1092, 0.06840749120160884, 1.8747512301437144),
            (1024, 1024, 0.009259259259259259, 2.9384499966637545),
            (993, 993, 0.04916834255069549, 5.099596806336611),
            (1689, 825, 0.3450925254846824, 28.46073321623089),
            (1087, 1087, 0.0474537037037037, 5.462870331083036),
            (1046, 1046, 0.040393518518518516, 2.254290320447747),
        ],
    );
}

#[test]
fn golden_flash_crowd() {
    assert_golden(
        NamedScenario::FlashCrowd,
        [
            (1004, 1004, 0.013866843033509699, 1.5068105385526607),
            (918, 918, 0.019290123456790122, 2.1965849258849324),
            (937, 937, 0.020189210950080513, 3.1070282348029),
            (1662, 813, 0.21932627989788556, 30.46447000548443),
            (938, 938, 0.04615183792815372, 3.1182381364496323),
            (939, 939, 0.007539682539682541, 2.18104474113403),
        ],
    );
}

#[test]
fn golden_commute_cycle() {
    assert_golden(
        NamedScenario::CommuteCycle,
        [
            (963, 963, 0.04832741576162628, 2.707875320672942),
            (905, 905, 0.04885651629072681, 2.664274230014324),
            (895, 895, 0.03681947925368978, 4.074808918324386),
            (1629, 801, 0.12078419874472507, 15.314126073809717),
            (940, 940, 0.043080502181379376, 4.339576268607744),
            (948, 948, 0.02146860206070732, 2.3486148218816107),
        ],
    );
}

#[test]
fn golden_heterogeneous_fleet() {
    assert_golden(
        NamedScenario::HeterogeneousFleet,
        [
            (971, 971, 0.01129599567099567, 1.522015078223579),
            (976, 976, 0.011553030303030303, 1.7834598788976335),
            (905, 905, 0.006779100529100528, 3.6561390216762057),
            (1461, 721, 0.2754988067488067, 21.293903859800505),
            (1005, 1005, 0.011111111111111112, 2.4817788233010454),
            (988, 988, 0.009717712842712842, 1.4256192563205234),
        ],
    );
}

#[test]
fn golden_twin_cities() {
    assert_golden(
        NamedScenario::TwinCities,
        [
            (913, 913, 0.019868581710686974, 2.2096548419406155),
            (855, 855, 0.018406593406593407, 2.7290037235709677),
            (913, 913, 0.039033391884269075, 4.693128168783575),
            (1651, 809, 0.28121217638761503, 28.258595334666907),
            (824, 824, 0.015900327742433006, 2.127645445611861),
            (867, 867, 0.012851037851037849, 2.2194930559411685),
        ],
    );
}

#[test]
fn golden_regional_blackout() {
    assert_golden(
        NamedScenario::RegionalBlackout,
        [
            (892, 804, 0.07759131300797967, 6.581983241119098),
            (858, 787, 0.06842380734924594, 7.535316560601377),
            (868, 791, 0.060277439827878414, 8.371107369642871),
            (1586, 710, 0.4651388268164583, 50.014792158413115),
            (927, 867, 0.055172720797720794, 10.572698970240628),
            (902, 826, 0.08480989040199566, 9.23871216984898),
        ],
    );
}

#[test]
fn heterogeneous_fleet_caps_actually_bind() {
    // The pedestrian class's Δ⊣ cap must shrink thresholds in practice:
    // uncapping it (same fleet, infinite caps) must not *increase* the
    // update volume LIRA spends. More sends with caps = the cap binds.
    let capped = NamedScenario::HeterogeneousFleet.tiny(19);
    let mut uncapped = capped.clone();
    for class in &mut uncapped.fleet {
        class.delta_cap = f64::INFINITY;
    }
    let a = run_scenario(&capped, &[Policy::Lira]);
    let b = run_scenario(&uncapped, &[Policy::Lira]);
    assert!(
        a.outcomes[0].updates_sent > b.outcomes[0].updates_sent,
        "caps should force extra updates: capped {} vs uncapped {}",
        a.outcomes[0].updates_sent,
        b.outcomes[0].updates_sent
    );
}

#[test]
fn random_drop_skew_is_reported_and_source_actuated_skew_is_zero() {
    // shed_skew measures *server-actuated* drop placement: positive for
    // Random Drop on clustered traffic, identically zero for policies
    // that shed at the source. plan_skew is the mirror image: zero for
    // the single-threshold plans, positive for the region-aware ones.
    let sc = NamedScenario::PaperWorld.tiny(42);
    let report = run_scenario(&sc, &Policy::ALL);
    let drop = report.outcome(Policy::RandomDrop).unwrap();
    assert!(drop.shed_skew > 0.0, "skew {}", drop.shed_skew);
    assert_eq!(drop.plan_skew, 0.0);
    for policy in [
        Policy::Lira,
        Policy::LiraGrid,
        Policy::UniformDelta,
        Policy::UtilityGreedy,
        Policy::UtilityModel,
    ] {
        let o = report.outcome(policy).unwrap();
        assert_eq!(o.shed_skew, 0.0, "{}", policy.name());
    }
    for policy in [
        Policy::Lira,
        Policy::LiraGrid,
        Policy::UtilityGreedy,
        Policy::UtilityModel,
    ] {
        let o = report.outcome(policy).unwrap();
        assert!(o.plan_skew > 0.0, "{}", policy.name());
    }
    assert_eq!(report.outcome(Policy::UniformDelta).unwrap().plan_skew, 0.0);
}
