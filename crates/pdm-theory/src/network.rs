//! Comparator networks and the oblivious-algorithm abstraction.
//!
//! A comparator network is the canonical *oblivious* sorting algorithm: the
//! sequence of compare-exchange operations is fixed in advance, independent
//! of the data. The paper's 0-1 principle results (Theorem 3.3) are stated
//! for networks but "extend to oblivious sorting algorithms" — captured here
//! by the [`Oblivious`] trait, which mesh algorithms also implement.

/// One compare-exchange gate: after application,
/// `data[lo] = min, data[hi] = max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comparator {
    /// Wire receiving the minimum.
    pub lo: usize,
    /// Wire receiving the maximum.
    pub hi: usize,
}

/// A data-independent transformation of a fixed number of wires.
pub trait Oblivious {
    /// Number of input lines.
    fn lines(&self) -> usize;
    /// Apply the transformation in place. `data.len()` must equal
    /// [`Oblivious::lines`].
    fn apply_u8(&self, data: &mut [u8]);
}

/// A comparator network over `n` wires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    n: usize,
    comps: Vec<Comparator>,
}

impl Network {
    /// An empty network over `n` wires.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            comps: Vec::new(),
        }
    }

    /// Number of wires.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The comparator sequence.
    pub fn comparators(&self) -> &[Comparator] {
        &self.comps
    }

    /// Number of comparators.
    pub fn size(&self) -> usize {
        self.comps.len()
    }

    /// Append a comparator `(lo, hi)`; wires must be distinct and in range.
    pub fn push(&mut self, lo: usize, hi: usize) {
        assert!(
            lo < self.n && hi < self.n && lo != hi,
            "bad comparator ({lo}, {hi})"
        );
        self.comps.push(Comparator { lo, hi });
    }

    /// Drop the last `k` comparators — used to manufacture *almost-sorting*
    /// networks for generalized-0-1-principle experiments.
    pub fn truncated(&self, k: usize) -> Network {
        let keep = self.comps.len().saturating_sub(k);
        Network {
            n: self.n,
            comps: self.comps[..keep].to_vec(),
        }
    }

    /// Apply the network to arbitrary ordered data in place.
    pub fn apply<K: Ord + Copy>(&self, data: &mut [K]) {
        assert_eq!(data.len(), self.n);
        for c in &self.comps {
            if data[c.lo] > data[c.hi] {
                data.swap(c.lo, c.hi);
            }
        }
    }

    /// Network depth: the number of parallel comparator layers under greedy
    /// layering (each wire used at most once per layer).
    pub fn depth(&self) -> usize {
        let mut wire_depth = vec![0usize; self.n];
        let mut depth = 0;
        for c in &self.comps {
            let d = wire_depth[c.lo].max(wire_depth[c.hi]) + 1;
            wire_depth[c.lo] = d;
            wire_depth[c.hi] = d;
            depth = depth.max(d);
        }
        depth
    }

    /// Exhaustively verify the classic 0-1 principle hypothesis: the network
    /// sorts all `2^n` binary inputs. Practical for `n ≤ 24`.
    pub fn sorts_all_binary(&self) -> bool {
        assert!(
            self.n <= 24,
            "exhaustive check infeasible for n = {}",
            self.n
        );
        let mut buf = vec![0u8; self.n];
        for mask in 0u64..(1u64 << self.n) {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ((mask >> i) & 1) as u8;
            }
            self.apply(&mut buf);
            if !buf.windows(2).all(|w| w[0] <= w[1]) {
                return false;
            }
        }
        true
    }
}

impl Oblivious for Network {
    fn lines(&self) -> usize {
        self.n
    }

    fn apply_u8(&self, data: &mut [u8]) {
        self.apply(data);
    }
}

/// The odd-even transposition ("brick") network: `n` alternating rounds of
/// neighbor comparators; sorts any input of length `n`.
pub fn odd_even_transposition(n: usize) -> Network {
    let mut net = Network::new(n.max(1));
    for round in 0..n {
        let start = round % 2;
        let mut i = start;
        while i + 1 < n {
            net.push(i, i + 1);
            i += 2;
        }
    }
    net
}

/// A bubble-sort network (triangular comparator pattern) — a simple
/// correct-but-large network for tests.
pub fn bubble(n: usize) -> Network {
    let mut net = Network::new(n.max(1));
    for pass in 0..n.saturating_sub(1) {
        for i in 0..n - 1 - pass {
            net.push(i, i + 1);
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_application() {
        let mut net = Network::new(2);
        net.push(0, 1);
        let mut d = [5u32, 3];
        net.apply(&mut d);
        assert_eq!(d, [3, 5]);
        // already ordered: unchanged
        net.apply(&mut d);
        assert_eq!(d, [3, 5]);
    }

    #[test]
    #[should_panic(expected = "bad comparator")]
    fn push_rejects_self_loop() {
        let mut net = Network::new(3);
        net.push(1, 1);
    }

    #[test]
    fn odd_even_transposition_sorts() {
        for n in 1..=8 {
            let net = odd_even_transposition(n);
            assert!(net.sorts_all_binary(), "OET({n}) fails binary check");
        }
        let net = odd_even_transposition(7);
        let mut d = [9u32, 1, 8, 2, 7, 3, 6];
        net.apply(&mut d);
        assert_eq!(d, [1, 2, 3, 6, 7, 8, 9]);
    }

    #[test]
    fn bubble_sorts() {
        for n in 1..=7 {
            assert!(bubble(n).sorts_all_binary());
        }
    }

    #[test]
    fn truncated_network_fails_binary_check() {
        let net = odd_even_transposition(6);
        assert!(net.sorts_all_binary());
        let cut = net.truncated(net.size() / 2);
        assert!(!cut.sorts_all_binary());
        assert_eq!(cut.n(), 6);
        assert!(cut.size() < net.size());
    }

    #[test]
    fn depth_of_brick_pattern() {
        // OET(n) has n layers, each wire touched once per layer
        let net = odd_even_transposition(6);
        assert_eq!(net.depth(), 6);
        let empty = Network::new(4);
        assert_eq!(empty.depth(), 0);
    }

    #[test]
    fn zero_one_principle_holds_empirically() {
        // A network passing the binary check sorts arbitrary inputs: spot
        // check with permutations.
        let net = odd_even_transposition(6);
        let mut perm = [3u32, 1, 4, 1, 5, 9];
        net.apply(&mut perm);
        assert!(perm.windows(2).all(|w| w[0] <= w[1]));
    }
}
