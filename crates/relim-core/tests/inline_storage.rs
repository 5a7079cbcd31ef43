//! Differential pinning of the inline-storage `Config`/`SetConfig`
//! against the historical `Vec`-backed semantics.
//!
//! `Config` and `SetConfig` moved from `Vec` storage to
//! [`relim_core::inline_vec::InlineVec`] (inline up to
//! [`relim_core::config::INLINE_DEGREE`] elements). That refactor must be
//! *unobservable*: the model here is a plain sorted `Vec` — exactly the
//! old representation — and every comparison surface (sort order, `Ord`,
//! `Eq`, `Hash`, rendering) is checked to agree with it, across the spill
//! boundary. Canonical problem digests are pinned as golden values: if a
//! storage change moved a single served byte, these digests move.

use proptest::prelude::*;
use relim_core::config::INLINE_DEGREE;
use relim_core::inline_vec::InlineVec;
use relim_core::roundelim::r_step;
use relim_core::{Config, Label, LabelSet, Problem, SetConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// The old representation: what `Config::new` used to store.
fn vec_model(raw: &[u8]) -> Vec<Label> {
    let mut v: Vec<Label> = raw.iter().map(|&i| Label::new(i)).collect();
    v.sort_unstable();
    v
}

/// Splitmix64 step — the vendored proptest shim has no `collection::vec`,
/// so variable-length inputs are derived from a (length, seed) pair.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn raw_labels() -> impl Strategy<Value = Vec<u8>> {
    // Degrees straddling the spill boundary (INLINE_DEGREE = 8): 0..=12.
    ((0usize..=12), (0u64..u64::MAX))
        .prop_map(|(len, mut seed)| (0..len).map(|_| (splitmix(&mut seed) % 20) as u8).collect())
}

fn raw_sets() -> impl Strategy<Value = Vec<u32>> {
    ((0usize..=12), (0u64..u64::MAX)).prop_map(|(len, mut seed)| {
        (0..len).map(|_| (splitmix(&mut seed) % (1 << 12)) as u32).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn config_sort_order_matches_vec_model(raw in raw_labels()) {
        let cfg = Config::new(raw.iter().map(|&i| Label::new(i)).collect());
        let model = vec_model(&raw);
        prop_assert_eq!(cfg.as_slice(), model.as_slice());
        // FromIterator and from_labels agree with the Vec-consuming path.
        let collected: Config = raw.iter().map(|&i| Label::new(i)).collect();
        prop_assert_eq!(&collected, &cfg);
        let from_slice =
            Config::from_labels(&raw.iter().map(|&i| Label::new(i)).collect::<Vec<_>>());
        prop_assert_eq!(&from_slice, &cfg);
    }

    #[test]
    fn config_ord_and_hash_agree_with_vec_model(a in raw_labels(), b in raw_labels()) {
        let (ca, cb) = (
            Config::new(a.iter().map(|&i| Label::new(i)).collect()),
            Config::new(b.iter().map(|&i| Label::new(i)).collect()),
        );
        let (ma, mb) = (vec_model(&a), vec_model(&b));
        // Vec's Ord/Eq are the slice's — the inline storage must agree.
        prop_assert_eq!(ca.cmp(&cb), ma.cmp(&mb));
        prop_assert_eq!(ca == cb, ma == mb);
        // Vec's Hash is the length-prefixed slice hash; `Config` hashing
        // is a newtype layer over it, so equal models ⇒ equal hashes and
        // (for this deterministic hasher) model-order-independence.
        if ma == mb {
            prop_assert_eq!(hash_of(&ca), hash_of(&cb));
        }
    }

    #[test]
    fn setconfig_matches_vec_model(raw in raw_sets()) {
        let sc = SetConfig::new(raw.iter().map(|&b| LabelSet::from_bits(b)).collect());
        let mut model: Vec<LabelSet> = raw.iter().map(|&b| LabelSet::from_bits(b)).collect();
        model.sort_unstable();
        prop_assert_eq!(sc.as_slice(), model.as_slice());
        let collected: SetConfig = raw.iter().map(|&b| LabelSet::from_bits(b)).collect();
        prop_assert_eq!(&collected, &sc);
        // count() agrees with a linear scan for every element present.
        for &s in model.iter() {
            let naive = model.iter().filter(|&&x| x == s).count() as u32;
            prop_assert_eq!(sc.count(s), naive);
        }
    }

    #[test]
    fn config_count_and_mutators_match_model(raw in raw_labels(), probe in 0u8..20) {
        let cfg = Config::new(raw.iter().map(|&i| Label::new(i)).collect());
        let model = vec_model(&raw);
        let label = Label::new(probe);
        let naive = model.iter().filter(|&&l| l == label).count() as u32;
        prop_assert_eq!(cfg.count(label), naive);
        prop_assert_eq!(cfg.contains(label), naive > 0);
        // with(): same as inserting into the model and re-sorting.
        let mut grown = model.clone();
        grown.push(label);
        grown.sort_unstable();
        let with = cfg.with(label);
        prop_assert_eq!(with.as_slice(), grown.as_slice());
        // replace_one(): first occurrence replaced, re-sorted.
        let target = Label::new(probe % 20);
        let expected = model.iter().position(|&l| l == target).map(|pos| {
            let mut m = model.clone();
            m[pos] = Label::new(0);
            m.sort_unstable();
            m
        });
        prop_assert_eq!(
            cfg.replace_one(target, Label::new(0)).map(|c| c.as_slice().to_vec()),
            expected
        );
    }

    #[test]
    fn inline_vec_spill_boundary_is_unobservable(extra in 0usize..5) {
        // Build the same logical content just below, at, and above the
        // boundary; equality/hash/order must never depend on representation.
        let n = INLINE_DEGREE + extra;
        let content: Vec<u8> = (0..n as u8).collect();
        let grown: InlineVec<u8, 8> = content.iter().copied().collect();
        let direct = InlineVec::<u8, 8>::from_slice(&content);
        prop_assert_eq!(grown.is_spilled(), n > INLINE_DEGREE);
        prop_assert_eq!(&grown, &direct);
        prop_assert_eq!(hash_of(&grown), hash_of(&direct));
        prop_assert_eq!(grown.as_slice(), content.as_slice());
    }
}

/// Golden canonical digests (FNV-1a 128 over the canonical text). These
/// values were recorded on the `Vec`-backed representation; the inline
/// refactor must serve the exact same bytes.
#[test]
fn canonical_digests_unchanged_by_inline_storage() {
    let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
    assert_eq!(mis.canonical_digest(), "c633598dbe7699f769d135cf09462198");
    let r = r_step(&mis).unwrap().problem;
    assert_eq!(r.canonical_digest(), "8ebc3bcf8d8fb15e0e3419a77ef7a7a9");
    let rr = relim_core::Engine::sequential().rbar_step(&r).unwrap().problem;
    assert_eq!(rr.canonical_digest(), "0b9ce17dc3d7fc1e6b4cdf09e2e69361");
}

/// Degree-9 (> INLINE_DEGREE) problems exercise the spilled representation
/// end-to-end: a full `R̄(R(·))` pipeline on a degree-9 sinkless-orientation
/// encoding must agree between the parallel engine and the sequential
/// reference, spill or no spill.
#[test]
fn spilled_configs_survive_a_full_step() {
    let so9 = Problem::from_text("O I I I I I I I I", "[O I] I").unwrap();
    assert_eq!(so9.delta(), 9);
    let r = r_step(&so9).unwrap();
    let reference = relim_core::Engine::builder().threads(1).memoize(false).build();
    let seq = reference.rbar_step(&r.problem).unwrap();
    for threads in [2, 8] {
        let engine = relim_core::Engine::builder().threads(threads).build();
        let par = engine.rbar_step(&r.problem).unwrap();
        assert_eq!(par.problem.render(), seq.problem.render(), "threads = {threads}");
    }
}
