//! Shared infrastructure for the bench crate: the round-elimination
//! [`Engine`] session the experiment drivers submit their parameter grids
//! to, a dependency-free JSON value writer, and the `BENCH_relim.json`
//! baseline format emitted by the `bench-driver` binary.
//!
//! Every driver computes its table rows through [`shared_engine`] (rows
//! are independent grid points sharded with [`Engine::map_owned`]; results
//! come back in grid order, so tables are byte-identical at any thread
//! count), cloning the session into the task closures when the rows
//! themselves run engine steps — one pool handle and one sub-multiset
//! index cache per driver process. The machine-readable counterpart of
//! the wall-clock tables is the [`baseline`] module.

#![forbid(unsafe_code)]

pub use relim_core::Engine;
/// The JSON value/parser this crate's baseline format is written in —
/// extracted to the `relim-json` crate (the service wire protocol shares
/// it) and re-exported here under its historical path.
pub use relim_json as json;

pub mod baseline;

/// The engine session the bench drivers submit their grids to:
/// `RELIM_THREADS` wide if set, otherwise available parallelism.
pub fn shared_engine() -> Engine {
    Engine::from_env()
}

/// A width-1 session with memoization off, for timing single operator
/// applications: every iteration runs inline and rebuilds its
/// sub-multiset index, so repeated iterations do the same work instead
/// of hitting a warm cache.
pub fn uncached_engine() -> Engine {
    Engine::builder().threads(1).memoize(false).build()
}

/// Times `samples` runs of `f` and returns (last result, median wall ns,
/// min wall ns, max wall ns).
pub fn time_median<R>(samples: usize, mut f: impl FnMut() -> R) -> (R, u64, u64, u64) {
    assert!(samples > 0);
    let mut walls: Vec<u64> = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        last = Some(std::hint::black_box(f()));
        walls.push(start.elapsed().as_nanos() as u64);
    }
    walls.sort_unstable();
    (last.expect("samples > 0"), walls[walls.len() / 2], walls[0], walls[walls.len() - 1])
}
