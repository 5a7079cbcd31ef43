//! Golden tests: `R(·)` and `R̄(R(·))` pinned to the paper-known fixed
//! points and first-step shapes.
//!
//! Two anchors from the round elimination literature (paper §1.3, §2.2):
//!
//! * **Sinkless orientation** (`O I^(Δ−1)` / `[O I] I`) is a fixed point
//!   of `R̄(R(·))` on Δ-regular trees for every Δ ≥ 3 (Brandt et al.,
//!   STOC'16).
//! * **MIS on Δ-regular trees** (`M M M; P O O` / `M [P O]; O O` at
//!   Δ = 3) is *not* a fixed point: its derivatives grow, which is
//!   exactly why the paper works with the `Π_Δ(a,x)` family instead.
//!   The first two derivative shapes are pinned here as golden values.
//!
//! Two family points, `Π_5(4, 1)` and `Π_4(3, 1)`, additionally pin the
//! exact rendered text of `R̄(R(Π))`, so a change to how the universal
//! side picks its maximal configurations must reproduce every byte.
//!
//! If an engine change breaks one of these numbers, it changed the
//! mathematics, not just the code — investigate before updating the
//! golden value.

use mis_domset_lb::family::family::{pi, PiParams};
use mis_domset_lb::family::sinkless;
use mis_domset_lb::relim::error::Result;
use mis_domset_lb::relim::roundelim;
use mis_domset_lb::relim::{iso, iterate, zeroround, Engine, Problem, Step};

/// One `R̄(R(·))` step on the reference session (one thread, no cache).
fn rr_step(p: &Problem) -> Result<(Step, Step)> {
    Engine::builder().threads(1).memoize(false).build().rr_step(p)
}

fn mis_delta3() -> Problem {
    Problem::from_text("M M M\nP O O", "M [P O]\nO O").expect("valid MIS encoding")
}

#[test]
fn sinkless_orientation_is_rr_fixed_point_for_small_delta() {
    for delta in 3..=6 {
        let so = sinkless::sinkless_orientation(delta).expect("valid SO");
        let (r, rr) = rr_step(&so).expect("SO derivatives exist");
        // Golden: R(SO) uses exactly the two set-labels {I} and {O I}.
        assert_eq!(r.problem.alphabet().len(), 2, "R(SO) alphabet at delta={delta}");
        let (reduced, _) = rr.problem.drop_unused_labels();
        assert!(iso::isomorphic(&reduced, &so), "R̄(R(SO)) not isomorphic to SO at delta={delta}");
    }
}

#[test]
fn sinkless_orientation_iteration_reports_fixed_point() {
    let so = sinkless::sinkless_orientation(3).expect("valid SO");
    let outcome = Engine::sequential().iterate_with_limits(&so, 5, 16);
    assert!(
        matches!(outcome.stopped, iterate::StopReason::FixedPoint),
        "expected FixedPoint, got {:?}",
        outcome.stopped
    );
    // Golden: the fixed point is recognized after a single step, with the
    // label/config profile unchanged (2 labels, |N| = 1, |E| = 2).
    let last = outcome.stats.last().expect("at least one step");
    assert_eq!((last.labels, last.node_configs, last.edge_configs), (2, 1, 2));
}

#[test]
fn mis_first_r_step_golden_shape() {
    let mis = mis_delta3();
    let step = roundelim::r_step(&mis).expect("R(MIS) exists");
    // Golden (matches Lemma 6's shape at the MIS point of the family):
    // R(MIS) at Δ=3 has exactly the four set-labels {M}, {O}, {M O},
    // {P O}.
    assert_eq!(step.problem.alphabet().len(), 4, "R(MIS) alphabet");
    let names: Vec<String> = step.provenance.iter().map(|s| s.display(mis.alphabet())).collect();
    assert_eq!(names, ["M", "O", "MO", "PO"], "R(MIS) provenance sets");
}

#[test]
fn mis_first_rr_step_golden_shape() {
    let mis = mis_delta3();
    let (_r, rr) = rr_step(&mis).expect("R̄(R(MIS)) exists");
    let (reduced, _) = rr.problem.drop_unused_labels();
    // Golden: 6 live labels, 4 node configurations, 11 edge
    // configurations after one full step.
    assert_eq!(reduced.alphabet().len(), 6, "labels after one RR step");
    assert_eq!(reduced.node().len(), 4, "node configs after one RR step");
    assert_eq!(reduced.edge().len(), 11, "edge configs after one RR step");
}

#[test]
fn mis_grows_and_never_reaches_a_fixed_point_early() {
    // Golden growth profile of iterated R̄(R(·)) on MIS (why the paper
    // needs the Π_Δ(a,x) family): 3 → 6 → 19 labels in two steps.
    let outcome = Engine::sequential().iterate_with_limits(&mis_delta3(), 2, 40);
    let labels: Vec<usize> = outcome.stats.iter().map(|s| s.labels).collect();
    assert_eq!(labels, [3, 6, 19], "label growth profile");
    assert!(
        !matches!(outcome.stopped, iterate::StopReason::FixedPoint),
        "MIS must not be reported as a fixed point"
    );
}

#[test]
fn zeroround_status_is_preserved_along_the_first_steps() {
    // Neither SO nor MIS is 0-round solvable, and (speedup direction)
    // triviality must not appear in one step for these anchors — their
    // lower bounds are > 1 round.
    for p in [sinkless::sinkless_orientation(3).expect("valid SO"), mis_delta3()] {
        assert!(!zeroround::solvable_deterministically(&p));
        let (_r, rr) = rr_step(&p).expect("derivative exists");
        let (reduced, _) = rr.problem.drop_unused_labels();
        assert!(!zeroround::solvable_deterministically(&reduced));
    }
}

#[test]
fn relaxed_so_encoding_lands_on_the_fixed_point() {
    // The strict-edge SO encoding is one RR step away from the
    // fixed-point encoding — the engine must find exactly it.
    let strict = sinkless::sinkless_orientation_strict_edges(3).expect("valid");
    let (_r, rr) = rr_step(&strict).expect("derivative exists");
    let (reduced, _) = rr.problem.drop_unused_labels();
    let fixed = sinkless::sinkless_orientation(3).expect("valid");
    assert!(iso::isomorphic(&reduced, &fixed));
}

/// `R̄(R(Π_Δ(a, x)))` rendered on the reference session.
fn rr_render_pi(delta: u32, a: u32, x: u32) -> String {
    let p = pi(&PiParams { delta, a, x }).expect("valid family point");
    let (_r, rr) = rr_step(&p).expect("R̄(R(Π)) exists");
    rr.problem.render()
}

/// Golden: the exact `R̄(R(Π_5(4, 1)))` — the `R̄` input of the
/// `rbar_step_pi_d5_a4_x1` bench kernel — byte for byte. Every node
/// configuration is a maximal universal configuration, so a maximality
/// rule that keeps a dominated configuration or drops a maximal one
/// changes this text.
#[test]
fn rr_step_pi_d5_a4_x1_golden_render() {
    assert_eq!(rr_render_pi(5, 4, 1), PI_D5_A4_X1_RR);
}

/// Golden: the exact `R̄(R(Π_4(3, 1)))`, byte for byte.
#[test]
fn rr_step_pi_d4_a3_x1_golden_render() {
    assert_eq!(rr_render_pi(4, 3, 1), PI_D4_A3_X1_RR);
}

const PI_D5_A4_X1_RR: &str = r#"N (degree 5):
{MPOAX} {MOAX MPOAX} {MOX OAX MOAX POAX MPOAX}^2 {MX OX MOX OAX MOAX POAX MPOAX}
{MPOAX} {MOX MOAX MPOAX}^2 {MX OX MOX OAX MOAX POAX MPOAX}^2
{MOAX MPOAX}^3 {MX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX}^2 {MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX}^2 {MOX MOAX POAX MPOAX}^2 {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX}^2 {MX MOX OAX MOAX POAX MPOAX}^3
{POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}^4
{MOX MOAX MPOAX}^3 {MX MOX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX}^3 {MOX OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX}^2 {MOX OAX MOAX POAX MPOAX}^3
{MX MOX MOAX MPOAX}^4 {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX}^4 {OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX}^4 {X MX OX MOX OAX MOAX POAX MPOAX}

E:
{MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{POAX MPOAX} {MX MOX MOAX MPOAX}
{POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MX MOX MOAX MPOAX}
{MOAX POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MOX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MX MOX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX}^2
{MX MOX MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX}^2
{MOX OAX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX OAX MOAX POAX MPOAX}^2
{MX MOX OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MX MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{OX MOX OAX MOAX POAX MPOAX}^2
{OX MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{OX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX OX MOX OAX MOAX POAX MPOAX}^2
{MX OX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{X MX OX MOX OAX MOAX POAX MPOAX}^2"#;

const PI_D4_A3_X1_RR: &str = r#"N (degree 4):
{MPOAX} {MOX MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}^2
{MPOAX} {MOX OAX MOAX POAX MPOAX}^2 {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX}^2 {MX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {MOX MOAX POAX MPOAX}^2 {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}^3
{POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}^3
{MOX MOAX MPOAX}^2 {MX MOX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX}^2 {MOX OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}^3
{MX MOX MOAX MPOAX}^3 {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX}^3 {OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX}^3 {X MX OX MOX OAX MOAX POAX MPOAX}

E:
{MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{POAX MPOAX} {MX MOX MOAX MPOAX}
{POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MX MOX MOAX MPOAX}
{MOAX POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MOX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MX MOX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MX MOX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX}^2
{MX MOX MOAX POAX MPOAX} {MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX}^2
{MOX OAX MOAX POAX MPOAX} {MX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX OAX MOAX POAX MPOAX}^2
{MX MOX OAX MOAX POAX MPOAX} {OX MOX OAX MOAX POAX MPOAX}
{MX MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{MX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{OX MOX OAX MOAX POAX MPOAX}^2
{OX MOX OAX MOAX POAX MPOAX} {MX OX MOX OAX MOAX POAX MPOAX}
{OX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{MX OX MOX OAX MOAX POAX MPOAX}^2
{MX OX MOX OAX MOAX POAX MPOAX} {X MX OX MOX OAX MOAX POAX MPOAX}
{X MX OX MOX OAX MOAX POAX MPOAX}^2"#;
