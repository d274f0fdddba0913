//! Output verification, run outside every timed region.
//!
//! Every job's input is `0..n`, so an output is correct when it holds each
//! of `0..n` exactly once (an `O(n)` bitmap).  On top of that a gross-bias
//! guard with fixed limits rejects outputs no uniform permutation produces
//! in practice: each output's ascent count must lie within six standard
//! deviations of `(n − 1)/2`, and the fixed points summed over distinct
//! outputs must lie within six standard deviations (plus a small-count
//! allowance) of their Poisson mean, one per output.  The identity and the
//! reversal fail the guard; duplicates and missing items fail the bitmap.

/// Accumulates verification results for one run.
#[derive(Debug, Default)]
pub struct Verifier {
    bitmap: Vec<u64>,
    checked: u64,
    fixed_points: u64,
    tallied: u64,
    errors: Vec<String>,
}

impl Verifier {
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Checks that `out` is a permutation of `0..n` whose ascent count is
    /// plausible for a uniform one.  Returns whether it passed.
    pub fn check(&mut self, what: &str, n: usize, out: &[u64]) -> bool {
        self.checked += 1;
        if let Err(e) = self.permutation_of_iota(n, out) {
            return self.fail(format!("{what}: {e}"));
        }
        let a = ascents(out);
        if !ascents_plausible(out.len(), a) {
            return self.fail(format!(
                "{what}: {a} ascents in {} items is not plausible for a uniform permutation",
                out.len()
            ));
        }
        true
    }

    /// Checks a buffer that a loop of shuffles reuses: it must still hold
    /// each of `0..buf.len()` once, and its first `last` items, shuffled
    /// last, must have a plausible ascent count.
    pub fn check_reshuffled(&mut self, what: &str, buf: &[u64], last: usize) -> bool {
        self.checked += 1;
        if let Err(e) = self.permutation_of_iota(buf.len(), buf) {
            return self.fail(format!("{what}: {e}"));
        }
        let a = ascents(&buf[..last]);
        if !ascents_plausible(last, a) {
            return self.fail(format!(
                "{what}: {a} ascents in the {last} items shuffled last is not plausible"
            ));
        }
        true
    }

    /// Checks that `out` equals `reference` (computed by the one-shot
    /// `Permuter::permute` of the same input and engine seed).
    pub fn check_equal(&mut self, what: &str, out: &[u64], reference: &[u64]) -> bool {
        if out != reference {
            return self.fail(format!(
                "{what}: output differs from Permuter::permute of the same input and seed"
            ));
        }
        true
    }

    /// Adds `out`'s fixed points to the Poisson tally.  Call it once per
    /// *distinct* output: a seeded engine gives every job of one size the
    /// same permutation, so repeats are not independent draws.
    pub fn tally(&mut self, out: &[u64]) {
        self.fixed_points += out
            .iter()
            .enumerate()
            .filter(|&(i, &x)| x == i as u64)
            .count() as u64;
        self.tallied += 1;
    }

    /// Records a failure that is not about one output's content.
    pub fn fail(&mut self, message: String) -> bool {
        if self.errors.len() < 16 {
            self.errors.push(message);
        }
        false
    }

    /// The run's verdict: `Ok(outputs checked)` or every failure found.
    pub fn finish(&self) -> Result<u64, String> {
        let mut errors = self.errors.clone();
        if !fixed_points_plausible(self.fixed_points, self.tallied) {
            errors.push(format!(
                "{} fixed points over {} distinct outputs is not plausible (Poisson mean {})",
                self.fixed_points, self.tallied, self.tallied
            ));
        }
        if errors.is_empty() {
            Ok(self.checked)
        } else {
            Err(errors.join("; "))
        }
    }

    fn permutation_of_iota(&mut self, n: usize, out: &[u64]) -> Result<(), String> {
        if out.len() != n {
            return Err(format!("{} items returned for {n} submitted", out.len()));
        }
        let words = n.div_ceil(64);
        self.bitmap.clear();
        self.bitmap.resize(words, 0);
        for &x in out {
            if x >= n as u64 {
                return Err(format!("item {x} is outside 0..{n}"));
            }
            let (w, b) = ((x / 64) as usize, x % 64);
            if self.bitmap[w] >> b & 1 == 1 {
                return Err(format!("item {x} appears twice"));
            }
            self.bitmap[w] |= 1 << b;
        }
        Ok(())
    }
}

/// Positions `i` with `out[i] < out[i + 1]`.
pub fn ascents(out: &[u64]) -> u64 {
    out.windows(2).filter(|w| w[0] < w[1]).count() as u64
}

/// Whether `a` ascents are within six standard deviations of the mean
/// `(n − 1)/2` of a uniform permutation of `n` items (variance
/// `(n + 1)/12`).
pub fn ascents_plausible(n: usize, a: u64) -> bool {
    if n < 2 {
        return a == 0;
    }
    let mean = (n as f64 - 1.0) / 2.0;
    let sd = ((n as f64 + 1.0) / 12.0).sqrt();
    (a as f64 - mean).abs() <= 6.0 * sd
}

/// Whether `total` fixed points over `outputs` independent uniform
/// permutations is plausible: the count is close to Poisson with mean
/// `outputs`, so allow six standard deviations plus six.
pub fn fixed_points_plausible(total: u64, outputs: u64) -> bool {
    let mean = outputs as f64;
    (total as f64 - mean).abs() <= 6.0 * mean.sqrt() + 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{floor_shuffle, SplitMix64};

    fn shuffled(n: usize, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).collect();
        floor_shuffle(&mut SplitMix64::new(seed), &mut v);
        v
    }

    #[test]
    fn accepts_uniform_permutations() {
        let mut v = Verifier::new();
        for (seed, n) in [(1, 1usize), (2, 2), (3, 64), (4, 1024), (5, 1 << 16)] {
            let out = shuffled(n, seed);
            assert!(v.check("uniform", n, &out));
            v.tally(&out);
        }
        assert_eq!(v.finish(), Ok(5));
    }

    #[test]
    fn rejects_a_duplicate() {
        let mut out = shuffled(1000, 1);
        let k = out.iter().position(|&x| x == 4).unwrap();
        out[k] = 3;
        let mut v = Verifier::new();
        assert!(!v.check("duplicate", 1000, &out));
        assert!(v.finish().unwrap_err().contains("twice"));
    }

    #[test]
    fn rejects_a_missing_item() {
        let mut out = shuffled(1000, 2);
        out.pop();
        let mut v = Verifier::new();
        assert!(!v.check("short", 1000, &out));
        let mut out = shuffled(1000, 2);
        let k = out.iter().position(|&x| x == 999).unwrap();
        out[k] = 1000;
        assert!(!v.check("out of range", 1000, &out));
    }

    #[test]
    fn rejects_the_identity() {
        let out: Vec<u64> = (0..1000).collect();
        let mut v = Verifier::new();
        assert!(!v.check("identity", 1000, &out));
        // The fixed-point tally alone also catches it.
        let mut tally_only = Verifier::new();
        tally_only.tally(&out);
        assert!(tally_only.finish().is_err());
    }

    #[test]
    fn rejects_the_reversal() {
        let out: Vec<u64> = (0..1000).rev().collect();
        let mut v = Verifier::new();
        assert!(!v.check("reversal", 1000, &out));
        assert!(v.finish().unwrap_err().contains("ascents"));
    }

    #[test]
    fn check_reshuffled_looks_at_the_last_prefix() {
        let mut buf: Vec<u64> = (0..1000).collect();
        floor_shuffle(&mut SplitMix64::new(4), &mut buf[..100]);
        let mut v = Verifier::new();
        assert!(v.check_reshuffled("prefix", &buf, 100));
        assert!(!v.check_reshuffled("whole", &buf, 1000));
        buf[999] = 0;
        assert!(!v.check_reshuffled("duplicate", &buf, 100));
    }

    #[test]
    fn check_equal_spots_a_difference() {
        let mut v = Verifier::new();
        let a = shuffled(100, 3);
        assert!(v.check_equal("same", &a, &a.clone()));
        let mut b = a.clone();
        b.swap(0, 1);
        assert!(!v.check_equal("swapped", &a, &b));
    }

    #[test]
    fn limits_are_fixed() {
        assert!(ascents_plausible(1000, 499));
        assert!(!ascents_plausible(1000, 999));
        assert!(!ascents_plausible(1000, 0));
        assert!(fixed_points_plausible(0, 3));
        assert!(fixed_points_plausible(20, 10));
        assert!(!fixed_points_plausible(64, 3));
    }
}
