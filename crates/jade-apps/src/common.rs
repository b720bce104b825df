//! Helpers shared by the six applications.

use jade_core::ProcId;
use std::ops::Deref;

/// The worker ring used by the paper's explicit task placements: processors
/// in round-robin order **omitting the main processor** (for applications
/// with small task grain, "the best performance is obtained by devoting one
/// processor to creating tasks"). With one processor there is nothing to
/// omit.
pub fn worker_ring(procs: usize) -> Vec<ProcId> {
    if procs <= 1 {
        vec![0]
    } else {
        (1..procs).collect()
    }
}

/// Split `n` items into `k` contiguous chunks as evenly as possible.
/// Returns `(start, end)` pairs; chunks may be empty when `k > n`.
pub fn chunk_ranges(n: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k >= 1);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Order in which per-processor replicated-array tasks are created: all
/// workers first, the main processor's copy last. The main thread blocks on
/// the following serial phase right after creating the last task, so its own
/// dispatcher picks that task up immediately — matching the 100% task
/// locality the paper measures for Water and String.
pub fn creation_order(procs: usize) -> Vec<ProcId> {
    let mut order: Vec<ProcId> = (1..procs).collect();
    order.push(0);
    order
}

/// A small deterministic SplitMix64 generator used to build workloads
/// (molecule positions, sparsity patterns). Self-contained so workload
/// generation is reproducible and dependency-free.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// A tiny deterministic checksum over floats (order-sensitive), used to
/// compare outputs across runtimes.
pub fn checksum(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = Checksum::new();
    sum.extend(xs);
    sum.value()
}

/// [`checksum`] fed one value or one object at a time, so a gather that
/// reads many objects folds them where they lie instead of copying them
/// into one sequence first. Fed the same sequence, in any number of
/// pieces, it ends on the bits [`checksum`] returns.
#[derive(Clone, Copy, Debug)]
pub struct Checksum {
    acc: f64,
    k: f64,
}

impl Checksum {
    pub fn new() -> Checksum {
        Checksum { acc: 0.0, k: 1.0 }
    }

    #[inline]
    pub fn push(&mut self, x: f64) {
        self.acc += x * self.k;
        self.k = -self.k * 0.9999;
    }

    /// The checksum of everything pushed so far.
    pub fn value(&self) -> f64 {
        self.acc
    }
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

impl Extend<f64> for Checksum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }
}

/// `(Σ x, checksum(x))` over the values of `parts`, in order, read where
/// they lie: bit for bit what `.sum()` and [`checksum`] give over one
/// vector holding all of them, without that vector.
pub fn sum_and_checksum<P: Deref<Target = Vec<f64>>>(
    parts: impl IntoIterator<Item = P>,
) -> (f64, f64) {
    let mut sum = Checksum::new();
    let total = parts
        .into_iter()
        .flat_map(|p| (0..p.len()).map(move |i| p[i]))
        .inspect(|&x| sum.push(x))
        .sum();
    (total, sum.value())
}

/// Floats for the kernels' bit-identity tests.
#[cfg(test)]
pub(crate) mod test_floats {
    /// A float a sum's bits are sensitive to: a signed zero, a signed
    /// subnormal, a signed infinity, or any other bit pattern, NaNs
    /// included.
    pub fn awkward(b: u64) -> f64 {
        match b % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(b >> 12),
            3 => -f64::from_bits(b >> 12),
            4 => f64::INFINITY.copysign(f64::from_bits(b)),
            _ => f64::from_bits(b),
        }
    }

    /// Equal bits cell for cell, where a NaN need only meet a NaN: Rust
    /// leaves a NaN result's payload open.
    pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }
}

#[cfg(test)]
mod tests {
    use super::test_floats::{awkward, same_bits};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ring_omits_main() {
        assert_eq!(worker_ring(1), vec![0]);
        assert_eq!(worker_ring(4), vec![1, 2, 3]);
    }

    #[test]
    fn chunks_cover_everything() {
        for n in [0usize, 1, 7, 100] {
            for k in [1usize, 2, 3, 8] {
                let ch = chunk_ranges(n, k);
                assert_eq!(ch.len(), k);
                assert_eq!(ch[0].0, 0);
                assert_eq!(ch.last().unwrap().1, n);
                for w in ch.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let ch = chunk_ranges(10, 3);
        let sizes: Vec<_> = ch.iter().map(|(a, b)| b - a).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn creation_order_puts_main_last() {
        assert_eq!(creation_order(4), vec![1, 2, 3, 0]);
        assert_eq!(creation_order(1), vec![0]);
    }

    proptest! {
        /// Any sequence, cut into pieces anywhere, streams to the bits of
        /// the one-shot checksum: signed zeros, subnormals, infinities and
        /// NaN patterns included (a NaN result need only stay a NaN).
        #[test]
        fn streaming_checksum_equals_the_one_shot(
            raw in prop::collection::vec(any::<u64>(), 0..200),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let xs: Vec<f64> = raw.iter().map(|&b| awkward(b)).collect();
            let want = checksum(xs.iter().copied());
            prop_assert!(same_bits(&[want], &[one_shot(&xs)]), "{want} vs {}", one_shot(&xs));
            let mut ends: Vec<usize> = cuts.iter().map(|c| c % (xs.len() + 1)).collect();
            ends.push(xs.len());
            ends.sort_unstable();
            let mut sum = Checksum::new();
            let mut start = 0;
            for end in ends {
                sum.extend(xs[start..end].iter().copied());
                start = end;
            }
            prop_assert!(same_bits(&[sum.value()], &[want]), "{} vs {want}", sum.value());
        }
    }

    #[test]
    fn pieces_sum_and_checksum_as_one_vector() {
        let parts = [
            vec![-0.0, 1.5],
            vec![],
            vec![-0.0],
            vec![2.25, -3.0, 1e-310],
        ];
        let all: Vec<f64> = parts.iter().flatten().copied().collect();
        let (total, sum) = sum_and_checksum(&parts);
        assert_eq!(total.to_bits(), all.iter().sum::<f64>().to_bits());
        assert_eq!(sum.to_bits(), checksum(all).to_bits());
        // All-negative-zero pieces keep the sign `.sum()` gives them.
        let (zero, _) = sum_and_checksum(&[vec![-0.0], vec![-0.0]]);
        assert_eq!(
            zero.to_bits(),
            [-0.0f64, -0.0].iter().sum::<f64>().to_bits()
        );
    }

    /// The checksum's definition as one loop over the whole sequence: the
    /// oracle both forms are held to.
    fn one_shot(xs: &[f64]) -> f64 {
        let mut acc = 0.0f64;
        let mut k = 1.0f64;
        for &x in xs {
            acc += x * k;
            k = -k * 0.9999;
        }
        acc
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = checksum([1.0, 2.0, 3.0]);
        let b = checksum([3.0, 2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(a, checksum([1.0, 2.0, 3.0]));
    }
}
