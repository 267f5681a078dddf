//! The request schedule: everything `--seed` decides.
//!
//! A client's traffic is a sequence of blocks, each holding every kind
//! of its workload exactly once in a seeded order, so any run length
//! gives every kind an equal share (to within one block) while the
//! order differs between seeds and between clients. The program under
//! test sees only the generated requests.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One generated request: which kind of the workload's set, and the
/// seed the request carries to both parties' RNGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    pub kind: usize,
    pub request_seed: u64,
}

/// An endless, deterministic stream of requests for one client.
#[derive(Debug)]
pub struct Schedule {
    rng: StdRng,
    block: Vec<usize>,
    at: usize,
}

impl Schedule {
    pub fn new(seed: u64, client: usize, kinds: usize) -> Schedule {
        assert!(kinds > 0, "a workload has at least one kind");
        // Distinct streams per client; the odd multiplier keeps client 0
        // of seed s apart from client 1 of seed s - 1.
        let stream = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Schedule { rng: StdRng::seed_from_u64(stream), block: (0..kinds).collect(), at: kinds }
    }
}

impl Iterator for Schedule {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        if self.at == self.block.len() {
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
            self.at = 0;
        }
        let kind = self.block[self.at];
        self.at += 1;
        Some(Planned { kind, request_seed: self.rng.gen() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: usize, kinds: usize, n: usize) -> Vec<Planned> {
        Schedule::new(seed, client, kinds).take(n).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(take(7, 0, 5, 200), take(7, 0, 5, 200));
        assert_eq!(take(7, 1, 3, 99), take(7, 1, 3, 99));
    }

    #[test]
    fn another_seed_reorders_but_keeps_the_shares() {
        let a = take(7, 0, 5, 500);
        let b = take(8, 0, 5, 500);
        let order = |s: &[Planned]| s.iter().map(|p| p.kind).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
        let shares = |s: &[Planned]| {
            let mut counts = [0usize; 5];
            s.iter().for_each(|p| counts[p.kind] += 1);
            counts
        };
        assert_eq!(shares(&a), [100; 5]);
        assert_eq!(shares(&b), [100; 5]);
        // Request seeds differ too, and never repeat within a stream.
        let mut seeds: Vec<u64> = a.iter().map(|p| p.request_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn clients_of_one_run_get_distinct_streams() {
        assert_ne!(take(7, 0, 3, 60), take(7, 1, 3, 60));
    }

    #[test]
    fn every_block_holds_every_kind_once() {
        for block in take(3, 0, 5, 50).chunks(5) {
            let mut kinds: Vec<usize> = block.iter().map(|p| p.kind).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, [0, 1, 2, 3, 4]);
        }
    }
}
