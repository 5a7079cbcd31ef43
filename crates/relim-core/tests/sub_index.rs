//! Differential pinning of [`relim_core::constraint::SubMultisetIndex`]
//! against the plain definition: the set of every `Config::sub_multisets`
//! of every configuration.
//!
//! The index stores packed `u64` keys (`Σ count(l)·(Δ+1)^l`) and falls
//! back to a hash set of configurations when `(Δ+1)^n` overflows `u64`.
//! Both representations must answer `len` and `contains` exactly like the
//! reference, including on probes the packed encoding could confuse:
//! labels past the support, the empty configuration, and configurations
//! longer than the degree (whose counts would carry into the next digit).

use proptest::prelude::*;
use relim_core::{Config, Constraint, Label};
use std::collections::HashSet;

/// Splitmix64 step — the vendored proptest shim has no `collection::vec`,
/// so variable-length inputs are derived from a seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn reference(c: &Constraint) -> HashSet<Config> {
    c.iter().flat_map(Config::sub_multisets).collect()
}

fn config_of(raw: &[u8]) -> Config {
    Config::new(raw.iter().map(|&i| Label::new(i)).collect())
}

/// Asserts the index of `c` agrees with the reference on `len`, on every
/// sub-multiset and on every probe.
fn check(c: &Constraint, probes: &[Config]) -> Result<(), TestCaseError> {
    let index = c.sub_multiset_index();
    let expected = reference(c);
    prop_assert_eq!(index.len(), expected.len());
    prop_assert_eq!(index.degree(), c.degree());
    for sub in &expected {
        prop_assert!(index.contains(sub), "missing sub-multiset {}", sub);
    }
    for probe in probes {
        prop_assert_eq!(index.contains(probe), expected.contains(probe), "probe {}", probe);
    }
    Ok(())
}

/// A random constraint: degree `delta`, up to six configurations over a
/// pool of `pool` labels drawn from `0..=max_label`. High `max_label`
/// at high `delta` overflows the packed encoding (e.g. `9^22` at Δ = 8
/// with label 21), which exercises the fallback.
fn constraint_and_probes() -> impl Strategy<Value = (Constraint, Vec<Config>)> {
    ((0u32..=8), (1usize..=6), (1usize..=5), (0u8..=30), (0u64..u64::MAX)).prop_map(
        |(delta, configs, pool, max_label, mut seed)| {
            let labels: Vec<u8> = (0..pool)
                .map(|_| (splitmix(&mut seed) % (u64::from(max_label) + 1)) as u8)
                .collect();
            let mut draw = |len: usize, from: &[u8]| -> Vec<u8> {
                (0..len).map(|_| from[(splitmix(&mut seed) % from.len() as u64) as usize]).collect()
            };
            let c = Constraint::from_configs(
                (0..configs).map(|_| config_of(&draw(delta as usize, &labels))),
            )
            .unwrap();
            // Probes over the pool plus labels outside the support, of
            // every length up to three past the degree.
            let mut wide = labels.clone();
            wide.extend([max_label.saturating_add(1).min(30), 30, 0]);
            let mut probes = vec![Config::empty()];
            for len in 0..=delta as usize + 3 {
                for _ in 0..8 {
                    probes.push(config_of(&draw(len, &wide)));
                }
            }
            // Carry probes: Δ+1 copies of a label encode to one copy of
            // the next label's digit.
            for &l in &labels {
                probes.push(config_of(&vec![l; delta as usize + 1]));
            }
            // One-label extensions of every sub-multiset, as the R̄ DFS
            // probes them.
            for sub in reference(&c) {
                for &l in &wide {
                    probes.push(sub.with(Label::new(l)));
                }
            }
            (c, probes)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_matches_sub_multiset_reference(input in constraint_and_probes()) {
        let (c, probes) = input;
        check(&c, &probes)?;
    }
}

#[test]
fn longer_probe_does_not_carry_into_the_next_label() {
    // {A B} at Δ = 2: `A A A` packs to 3 = the key of `B`, so only the
    // length guard keeps it out.
    let c = Constraint::from_configs(vec![config_of(&[0, 1])]).unwrap();
    let index = c.sub_multiset_index();
    assert!(index.contains(&config_of(&[1])));
    assert!(!index.contains(&config_of(&[0, 0, 0])));
    assert!(!index.contains(&config_of(&[0, 0])));
    assert_eq!(index.len(), 4);
}

#[test]
fn overflowing_constraints_use_the_fallback_with_the_same_answers() {
    // 9^22 overflows u64: Δ = 8 with label 21 in the support.
    let c = Constraint::from_configs(vec![
        config_of(&[0, 0, 3, 21, 21, 21, 5, 7]),
        config_of(&[21; 8]),
    ])
    .unwrap();
    let probes = [
        Config::empty(),
        config_of(&[21; 9]),
        config_of(&[0, 0, 0]),
        config_of(&[22]),
        config_of(&[0, 3, 5, 7, 21]),
    ];
    check(&c, &probes).unwrap();
}

#[test]
fn degree_zero_constraint_holds_only_the_empty_config() {
    let c = Constraint::from_configs(vec![Config::empty()]).unwrap();
    let index = c.sub_multiset_index();
    assert_eq!(index.len(), 1);
    assert!(index.contains(&Config::empty()));
    assert!(!index.contains(&config_of(&[0])));
}
