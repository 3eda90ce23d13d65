//! Offline stand-in for `rand_chacha`: a seedable, clonable generator under
//! the `ChaCha8Rng` name. The stream is SplitMix64, not ChaCha — what the
//! callers need is determinism per seed, not the published bit stream.

use rand::{RngCore, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    state: u64,
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // One mixing round so that nearby seeds start far apart.
        let mut rng = ChaCha8Rng { state: seed ^ 0x5851_f42d_4c95_7f2d };
        rng.state = rng.next_u64();
        rng
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub type ChaCha12Rng = ChaCha8Rng;
pub type ChaCha20Rng = ChaCha8Rng;
