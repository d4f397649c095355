//! Deterministic, seedable synthetic graph generators.
//!
//! The paper evaluates on real SNAP datasets which are not redistributable
//! inside this repository; the generators here produce family-matched
//! synthetic stand-ins (see `datasets` for the rationale). All generators
//! take an explicit `seed` and use a counter-based RNG so results are
//! stable across platforms and runs.

pub mod barabasi_albert;
pub mod classic;
pub mod erdos_renyi;
pub mod rmat;
pub mod road;
pub mod watts_strogatz;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::{gnm, gnp};
pub use rmat::{rmat, RmatParams};
pub use road::road_grid;
pub use watts_strogatz::watts_strogatz;

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The RNG used by every generator: explicit seed, portable stream.
pub(crate) fn rng_from_seed(seed: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed)
}
