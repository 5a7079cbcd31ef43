//! Seeded request generation for the three workloads.
//!
//! Everything a run sends is a pure function of `(workload, seed)`, and
//! the daemons see only the generated requests. Cold requests are
//! `Π_Δ(a,x)` family points whose labels carry a per-request tag, so no
//! two of them share a canonical key; renaming keeps the labels' order
//! of first appearance, so the engine does the same work for every tag.

use lb_family::family::{pi, sweep_points, PiParams};
use relim_core::{Alphabet, Label};
use relim_service::ops::OpRequest;
use relim_service::queue::Class;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// An independent generator for sub-stream `stream` of `seed`.
fn sub_rng(seed: u64, stream: u64) -> Rng {
    let mut mix = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    Rng::new(mix.next_u64())
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client; every request a store-cold `iterate` step.
    ColdFamily,
    /// Two clients; Zipf repeats over a prefilled working set larger
    /// than the in-memory store.
    WarmZipf,
    /// Two clients against a two-daemon fleet; warm, cold, bulk and
    /// simultaneous duplicate requests.
    FleetMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ColdFamily, Workload::WarmZipf, Workload::FleetMixed];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFamily => "cold_family",
            Workload::WarmZipf => "warm_zipf",
            Workload::FleetMixed => "fleet_mixed",
        }
    }

    /// Parses the `--workload` spelling.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A repeat of working-set entry `i`: a store hit.
    Warm(u32),
    /// A store-cold interactive query.
    Cold,
    /// A store-cold heavy job submitted as `Class::Bulk`.
    Bulk,
    /// A store-cold query that both clients send to one daemon at once.
    Dup,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The job.
    pub op: OpRequest,
    /// The class override sent with it, if any.
    pub class: Option<Class>,
    /// What it exercises.
    pub kind: Kind,
    /// Index of the daemon it goes to.
    pub daemon: usize,
    /// Index into `cold_points()` of a `cold_family` request's point;
    /// 0 for every other request.
    pub point: u8,
}

impl Req {
    /// Whether the daemon schedules it as interactive.
    pub fn interactive(&self) -> bool {
        let bulk = self.class.map_or(self.op.is_bulk(), |c| c == Class::Bulk);
        !bulk
    }
}

const BASE_NAMES: [&str; 5] = ["M", "P", "O", "A", "X"];

/// `tag` in base 26 over `a..=z`. Appended to the upper-case base
/// names it keeps the five labels distinct from each other.
fn suffix(mut tag: u64) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(b'a' + (tag % 26) as u8));
        tag /= 26;
        if tag == 0 {
            return s;
        }
    }
}

/// The node and edge constraint text of `Π_Δ(a,x)`, labels tagged.
fn family_text(params: PiParams, tag: u64) -> (String, String) {
    let p = pi(&params).expect("family point is valid");
    let names: Vec<String> = BASE_NAMES.iter().map(|b| format!("{b}{}", suffix(tag))).collect();
    let identity: Vec<Label> = (0..BASE_NAMES.len()).map(|i| Label::new(i as u8)).collect();
    let alphabet = Alphabet::new(&names).expect("tagged names are distinct");
    let p = p.rename(&identity, alphabet).expect("identity is a bijection");
    (p.node().display(p.alphabet()), p.edge().display(p.alphabet()))
}

/// One `R̄(R(·))` step on `Π_Δ(a,x)`. `max_steps` stays 1: a second
/// step can explode and the daemon has no job budget.
pub fn family_iterate(params: PiParams, tag: u64, label_limit: usize) -> OpRequest {
    let (node, edge) = family_text(params, tag);
    OpRequest::Iterate { node, edge, max_steps: 1, label_limit }
}

/// `op` with the tags removed from its labels: the same problem under
/// the base label names. An `iterate` answer reports counts and why the
/// run stopped, never a label name, so a tagged request must be
/// answered exactly like its untagged form.
pub fn untagged(op: &OpRequest) -> OpRequest {
    let strip = |text: &str| text.chars().filter(|c| !c.is_ascii_lowercase()).collect();
    match op {
        OpRequest::Iterate { node, edge, max_steps, label_limit } => OpRequest::Iterate {
            node: strip(node),
            edge: strip(edge),
            max_steps: *max_steps,
            label_limit: *label_limit,
        },
        other => other.clone(),
    }
}

/// The 0-round analysis of `Π_Δ(a,x)`.
pub fn family_zero_round(params: PiParams, tag: u64) -> OpRequest {
    let (node, edge) = family_text(params, tag);
    OpRequest::ZeroRound { node, edge }
}

/// Tags are `counter * LANES + lane`, so the lanes below never collide.
const LANES: u64 = 4;
const LANE_WORKING_SET: u64 = 3;
const LANE_DUP: u64 = 2;

/// The points one `cold_family` round visits: every Lemma 6 point at
/// Δ = 4 and Δ = 5 except Δ=5 (a=4, x=0), so a round has 15 requests
/// and p50 is one point's latency (the 8th of 15) instead of the mean
/// of two. Every point comes up equally often, so the timings can
/// summarise each point's latencies on their own (`run::Timings`).
pub fn cold_points() -> Vec<PiParams> {
    let mut points = sweep_points(4);
    points.extend(sweep_points(5).into_iter().filter(|p| !(p.a == 4 && p.x == 0)));
    points
}

/// Label limits a `cold_family` request draws from. With few values the
/// check after the window (`run::check_cold`) executes at most 45
/// distinct untagged requests.
const COLD_LABEL_LIMITS: [usize; 3] = [16, 32, 64];

/// In-memory store capacity of the `warm_zipf` daemon.
pub const WARM_CAPACITY: usize = 256;
/// `warm_zipf` working-set size: three times the in-memory capacity.
pub const WARM_SET: usize = 3 * WARM_CAPACITY;
/// `fleet_mixed` working-set size (all of it fits in memory).
pub const FLEET_SET: usize = 256;
/// Zipf exponent of warm repeats.
const ZIPF_S: f64 = 1.0;
/// A `fleet_mixed` client sends a duplicate every this many requests.
pub const DUP_EVERY: u64 = 16;

/// A cheap warm-set entry: a 0-round analysis at Δ ∈ 3..=5 or one
/// iterate step at Δ = 3 (well under a millisecond each).
fn cheap_op(rng: &mut Rng, tag: u64) -> OpRequest {
    if rng.below(2) == 0 {
        let delta = 3 + rng.below(3) as u32;
        let params = PiParams {
            delta,
            a: rng.below(delta as usize + 1) as u32,
            x: rng.below(delta as usize + 1) as u32,
        };
        family_zero_round(params, tag)
    } else {
        let params = PiParams { delta: 3, a: rng.below(4) as u32, x: rng.below(4) as u32 };
        family_iterate(params, tag, 16)
    }
}

/// The static shape of a workload: who talks to what, and the working
/// set prefilled during set-up.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Daemons (2 = a fleet).
    pub daemons: usize,
    /// In-memory store capacity of each daemon.
    pub store_capacity: usize,
    /// Whether the daemons persist to a store directory.
    pub persistent: bool,
    /// Working-set entries, hottest first (index = Zipf rank − 1).
    pub working_set: Vec<OpRequest>,
    /// Cumulative Zipf weights over `working_set`.
    cdf: Vec<f64>,
    seed: u64,
}

impl Plan {
    /// The plan of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = sub_rng(seed, 0);
        let working_set: Vec<OpRequest> = match workload {
            Workload::ColdFamily => Vec::new(),
            Workload::WarmZipf => (0..WARM_SET as u64)
                .map(|i| cheap_op(&mut rng, i * LANES + LANE_WORKING_SET))
                .collect(),
            Workload::FleetMixed => {
                let mut set: Vec<OpRequest> = [(3, 6), (3, 8), (4, 6), (4, 8)]
                    .into_iter()
                    .map(|(delta, lemma)| OpRequest::sweep(delta, lemma).expect("servable sweep"))
                    .collect();
                set.extend(
                    (set.len() as u64..FLEET_SET as u64)
                        .map(|i| cheap_op(&mut rng, i * LANES + LANE_WORKING_SET)),
                );
                rng.shuffle(&mut set);
                set
            }
        };
        let mut total = 0.0;
        let cdf = (0..working_set.len())
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        let (clients, daemons, store_capacity, persistent) = match workload {
            Workload::ColdFamily => (1, 1, 1024, false),
            Workload::WarmZipf => (2, 1, WARM_CAPACITY, true),
            Workload::FleetMixed => (2, 2, 1024, false),
        };
        Plan { workload, clients, daemons, store_capacity, persistent, working_set, cdf, seed }
    }

    /// The order set-up submits the working set in. The in-memory
    /// store evicts FIFO, so the last `store_capacity` entries stay in
    /// memory and the rest are served from disk. Ranks 1, 4, 7, … go
    /// last: the memory/disk split of the Zipf mass is then the same
    /// for every seed.
    pub fn prefill_order(&self) -> Vec<usize> {
        let n = self.working_set.len();
        if !self.persistent {
            return (0..n).collect();
        }
        let (mem, disk): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % 3 == 0);
        disk.into_iter().chain(mem).collect()
    }

    /// A Zipf-distributed working-set index.
    fn zipf(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty working set");
        let u = rng.unit() * total;
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// The request stream of client `client`.
    pub fn stream(&self, client: usize) -> Stream<'_> {
        Stream {
            plan: self,
            client,
            rng: sub_rng(self.seed, 1 + client as u64),
            seq: 0,
            points: Vec::new(),
            heavy: Vec::new(),
            cycle: Vec::new(),
        }
    }
}

/// Pops the next item of `deck`, refilled with a shuffled `fresh()`
/// whenever it runs out: every item comes up equally often.
fn deal<T>(rng: &mut Rng, deck: &mut Vec<T>, fresh: impl FnOnce() -> Vec<T>) -> T {
    if deck.is_empty() {
        *deck = fresh();
        rng.shuffle(deck);
    }
    deck.pop().expect("fresh deck is non-empty")
}

/// What a non-duplicate `fleet_mixed` slot sends.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Warm,
    Cold,
    Bulk,
}

/// The non-duplicate slots of one `fleet_mixed` cycle of two duplicate
/// periods, dealt in shuffled order: 24 warm, 5 cold, 1 bulk, so with
/// the 2 duplicates 75% of requests are warm, 22% cold and 3% bulk in
/// every cycle. Fixed shares keep p50 inside the warm latencies and p90
/// inside the cold ones for every seed.
fn fleet_cycle() -> Vec<Slot> {
    let mut cycle = vec![Slot::Warm; 24];
    cycle.extend([Slot::Cold; 5]);
    cycle.push(Slot::Bulk);
    debug_assert_eq!(cycle.len() as u64, 2 * (DUP_EVERY - 1));
    cycle
}

/// One client's request stream (endless; the run decides when to stop).
#[derive(Debug, Clone)]
pub struct Stream<'p> {
    plan: &'p Plan,
    client: usize,
    rng: Rng,
    seq: u64,
    /// The rest of the current round of cold points.
    points: Vec<PiParams>,
    /// The rest of the current round of heavy (bulk) points.
    heavy: Vec<PiParams>,
    /// `fleet_mixed`: the rest of the current cycle.
    cycle: Vec<Slot>,
}

impl Stream<'_> {
    /// Whether the run may stop before the next request: at a round
    /// boundary for `cold_family` (every point equally often), before a
    /// duplicate for `fleet_mixed` (both clients stop together), and
    /// anywhere for `warm_zipf`.
    pub fn at_boundary(&self) -> bool {
        match self.plan.workload {
            Workload::ColdFamily => self.points.is_empty(),
            Workload::WarmZipf => true,
            Workload::FleetMixed => self.next_is_dup(),
        }
    }

    /// Whether the next `fleet_mixed` request is a duplicate.
    pub fn next_is_dup(&self) -> bool {
        self.plan.workload == Workload::FleetMixed && self.seq % DUP_EVERY == DUP_EVERY - 1
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let seq = self.seq;
        self.seq += 1;
        let tag = seq * LANES + self.client as u64;
        let plan = self.plan;
        let rng = &mut self.rng;
        match plan.workload {
            Workload::ColdFamily => {
                let point = deal(rng, &mut self.points, cold_points);
                let index = cold_points().iter().position(|p| *p == point);
                let limit = COLD_LABEL_LIMITS[rng.below(COLD_LABEL_LIMITS.len())];
                let op = family_iterate(point, tag, limit);
                Req {
                    op,
                    class: None,
                    kind: Kind::Cold,
                    daemon: 0,
                    point: index.expect("dealt from cold_points") as u8,
                }
            }
            Workload::WarmZipf => {
                let i = plan.zipf(rng);
                Req {
                    op: plan.working_set[i].clone(),
                    class: None,
                    kind: Kind::Warm(i as u32),
                    daemon: 0,
                    point: 0,
                }
            }
            Workload::FleetMixed if seq % DUP_EVERY == DUP_EVERY - 1 => {
                // Both clients derive the k-th duplicate from the same
                // sub-stream, so they send the same request.
                let k = seq / DUP_EVERY;
                let mut shared = sub_rng(plan.seed, 1_000_000 + k);
                let points = sweep_points(4);
                let point = points[shared.below(points.len())];
                let op = family_iterate(point, k * LANES + LANE_DUP, 16);
                let daemon = shared.below(plan.daemons);
                Req { op, class: None, kind: Kind::Dup, daemon, point: 0 }
            }
            Workload::FleetMixed => {
                let daemon = rng.below(plan.daemons);
                match deal(rng, &mut self.cycle, fleet_cycle) {
                    Slot::Warm => {
                        let i = plan.zipf(rng);
                        let op = plan.working_set[i].clone();
                        Req { op, class: None, kind: Kind::Warm(i as u32), daemon, point: 0 }
                    }
                    Slot::Cold => {
                        let point = deal(rng, &mut self.points, || sweep_points(4));
                        let op = family_iterate(point, tag, 16);
                        Req { op, class: None, kind: Kind::Cold, daemon, point: 0 }
                    }
                    Slot::Bulk => {
                        let point = deal(rng, &mut self.heavy, || sweep_points(5));
                        let op = family_iterate(point, tag, 16);
                        Req { op, class: Some(Class::Bulk), kind: Kind::Bulk, daemon, point: 0 }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(plan: &Plan, client: usize, n: usize) -> Vec<Req> {
        let mut stream = plan.stream(client);
        (0..n).map(|_| stream.next_req()).collect()
    }

    fn keys(reqs: &[Req]) -> Vec<String> {
        reqs.iter().map(|r| r.op.canonical_key().expect("generated ops parse")).collect()
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7);
            let b = Plan::new(workload, 7);
            let c = Plan::new(workload, 8);
            assert_eq!(a.working_set, b.working_set, "{workload:?}");
            for client in 0..a.clients {
                let (ra, rb, rc) =
                    (take(&a, client, 60), take(&b, client, 60), take(&c, client, 60));
                assert_eq!(keys(&ra), keys(&rb), "{workload:?} client {client}");
                let same_daemons =
                    ra.iter().zip(&rb).all(|(x, y)| x.daemon == y.daemon && x.kind == y.kind);
                assert!(same_daemons, "{workload:?} client {client}");
                assert_ne!(keys(&ra), keys(&rc), "{workload:?}: the seed must matter");
            }
        }
    }

    #[test]
    fn cold_family_never_repeats_a_key_and_visits_points_evenly() {
        let plan = Plan::new(Workload::ColdFamily, 3);
        let rounds = 4;
        let reqs = take(&plan, 0, rounds * cold_points().len());
        let distinct: HashSet<String> = keys(&reqs).into_iter().collect();
        assert_eq!(distinct.len(), reqs.len(), "a canonical key repeated");
        assert!(reqs.iter().all(|r| r.kind == Kind::Cold && r.interactive()));
        // Each round visits every point once: the request's problem
        // with the tag stripped identifies the point.
        // Its `point` index names the same problem every time.
        let mut seen = std::collections::HashMap::new();
        for r in &reqs {
            let OpRequest::Iterate { node, max_steps, .. } = &r.op else { panic!("not iterate") };
            assert_eq!(*max_steps, 1);
            let stripped: String = node.chars().filter(|c| !c.is_ascii_lowercase()).collect();
            let (problem, n) = seen.entry(r.point).or_insert((stripped.clone(), 0));
            assert_eq!(*problem, stripped, "point {} names two problems", r.point);
            *n += 1;
        }
        assert_eq!(seen.len(), cold_points().len());
        assert!(seen.values().all(|(_, n)| *n == rounds), "{seen:?}");
    }

    #[test]
    fn a_tagged_request_is_answered_like_its_untagged_form() {
        let engine = relim_core::Engine::sequential();
        for (i, point) in sweep_points(4).into_iter().enumerate() {
            let tagged = family_iterate(point, 1000 + i as u64, COLD_LABEL_LIMITS[i % 3]);
            let plain = untagged(&tagged);
            assert_ne!(
                tagged.canonical_key().expect("parses"),
                plain.canonical_key().expect("parses")
            );
            let answer = |op: &OpRequest| op.execute(&engine).expect("executes");
            assert_eq!(answer(&tagged), answer(&plain), "{point:?}");
        }
    }

    #[test]
    fn warm_working_set_exceeds_the_in_memory_store() {
        let plan = Plan::new(Workload::WarmZipf, 11);
        assert!(plan.persistent);
        let distinct: HashSet<String> = keys_of(&plan.working_set).into_iter().collect();
        assert_eq!(distinct.len(), plan.working_set.len(), "working-set keys are distinct");
        assert!(
            distinct.len() >= 2 * plan.store_capacity,
            "{} vs {}",
            distinct.len(),
            plan.store_capacity
        );
        // The prefill order leaves exactly ranks 1, 4, 7, … in memory.
        let order = plan.prefill_order();
        let resident: Vec<usize> = order[order.len() - plan.store_capacity..].to_vec();
        assert!(resident.iter().all(|i| i % 3 == 0));
        // Repeats only: every request is a working-set hit, hot ranks hottest.
        let reqs = take(&plan, 0, 4000);
        let rank1 = reqs.iter().filter(|r| r.kind == Kind::Warm(0)).count();
        let rank100 = reqs.iter().filter(|r| r.kind == Kind::Warm(99)).count();
        assert!(rank1 > 10 * rank100.max(1), "{rank1} vs {rank100}");
    }

    fn keys_of(ops: &[OpRequest]) -> Vec<String> {
        ops.iter().map(|op| op.canonical_key().expect("generated ops parse")).collect()
    }

    #[test]
    fn fleet_mix_has_every_kind_and_duplicates_agree_across_clients() {
        let plan = Plan::new(Workload::FleetMixed, 5);
        let (a, b) = (take(&plan, 0, 800), take(&plan, 1, 800));
        for kind in [Kind::Cold, Kind::Bulk, Kind::Dup] {
            assert!(a.iter().any(|r| r.kind == kind), "{kind:?} missing");
        }
        assert!(a.iter().any(|r| matches!(r.kind, Kind::Warm(_))));
        assert!(a.iter().all(|r| (r.kind == Kind::Bulk) == (r.class == Some(Class::Bulk))));
        let dups = |reqs: &[Req]| -> Vec<(String, usize)> {
            reqs.iter()
                .filter(|r| r.kind == Kind::Dup)
                .map(|r| (r.op.canonical_key().expect("parses"), r.daemon))
                .collect()
        };
        assert_eq!(dups(&a), dups(&b), "duplicates must be the same request on both clients");
        // Apart from duplicates, cold keys never repeat within or across clients.
        let cold: Vec<String> = a
            .iter()
            .chain(&b)
            .filter(|r| matches!(r.kind, Kind::Cold | Kind::Bulk))
            .map(|r| r.op.canonical_key().expect("parses"))
            .collect();
        let distinct: HashSet<&String> = cold.iter().collect();
        assert_eq!(distinct.len(), cold.len());
    }
}
