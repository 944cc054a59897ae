//! Synthetic pretraining corpus: Markov language + repetition structure.

use opt_tensor::SeedStream;

/// A batch of language-modelling data: flat token stream (sequences
/// concatenated) and next-token targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Input tokens, `n_seq * seq_len` of them, grouped by sequence.
    pub tokens: Vec<usize>,
    /// Next-token targets, aligned with `tokens`.
    pub targets: Vec<usize>,
}

/// An order-1 Markov chain over `vocab` tokens where each token has
/// `branching` plausible successors with geometrically decaying
/// probability.
///
/// The decaying profile gives the chain a known entropy floor
/// ([`MarkovChain::entropy_floor_nats`]): a perfectly trained model's loss
/// converges there, so compression-induced quality loss is measurable as
/// the gap above the floor — our stand-in for the paper's validation
/// perplexity comparisons.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    vocab: usize,
    /// successors[t] = list of (token, probability).
    successors: Vec<Vec<(usize, f32)>>,
}

impl MarkovChain {
    /// Creates a chain with `branching` successors per token.
    ///
    /// # Panics
    ///
    /// Panics if `vocab == 0`, `branching == 0`, or `branching > vocab`.
    pub fn new(vocab: usize, branching: usize, seed: u64) -> Self {
        assert!(vocab > 0, "vocab must be positive");
        assert!(branching > 0 && branching <= vocab, "invalid branching");
        let mut rng = SeedStream::new(seed);
        let mut successors = Vec::with_capacity(vocab);
        for _ in 0..vocab {
            // Geometric-ish decay: p_i proportional to 2^-i.
            let mut weights = Vec::with_capacity(branching);
            let mut total = 0.0f32;
            for i in 0..branching {
                let w = 0.5f32.powi(i as i32);
                weights.push(w);
                total += w;
            }
            let mut succ = Vec::with_capacity(branching);
            let mut used = std::collections::HashSet::new();
            for w in weights {
                let mut t = rng.below(vocab);
                while used.contains(&t) {
                    t = rng.below(vocab);
                }
                used.insert(t);
                succ.push((t, w / total));
            }
            successors.push(succ);
        }
        Self { vocab, successors }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Samples the successor of `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token >= vocab`.
    pub fn step(&self, token: usize, rng: &mut SeedStream) -> usize {
        let succ = &self.successors[token];
        let mut u = rng.unit();
        for &(t, p) in succ {
            if u < p {
                return t;
            }
            u -= p;
        }
        succ.last().expect("non-empty successors").0
    }

    /// The most likely successor of `token` (used by the MarkovNext
    /// zero-shot probe).
    ///
    /// # Panics
    ///
    /// Panics if `token >= vocab`.
    pub fn most_likely_successor(&self, token: usize) -> usize {
        self.successors[token]
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("non-empty successors")
            .0
    }

    /// Per-step conditional entropy in nats (uniform over source states):
    /// the minimum achievable language-modelling loss on pure chain data.
    pub fn entropy_floor_nats(&self) -> f32 {
        let mut h = 0.0;
        for succ in &self.successors {
            for &(_, p) in succ {
                h -= p * p.ln();
            }
        }
        h / self.vocab as f32
    }
}

/// The pretraining corpus: a seeded mixture of Markov-chain sequences and
/// repeated-window sequences, with a deterministic train/validation split
/// (validation uses an RNG stream derived from a distinct salt, mirroring
/// the paper's 5 % holdout).
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    chain: MarkovChain,
    seq_len: usize,
    repeat_fraction: f64,
    seed: u64,
}

impl SyntheticCorpus {
    /// Creates a corpus over `vocab` tokens with sequences of `seq_len`.
    /// `repeat_fraction` of sequences are repetition-structured (default
    /// experiments use 0.5).
    ///
    /// # Panics
    ///
    /// Panics if `seq_len < 4` or `repeat_fraction` is outside `[0, 1]`.
    pub fn new(vocab: usize, seq_len: usize, repeat_fraction: f64, seed: u64) -> Self {
        assert!(seq_len >= 4, "seq_len must be at least 4");
        assert!(
            (0.0..=1.0).contains(&repeat_fraction),
            "repeat_fraction in [0,1]"
        );
        Self {
            chain: MarkovChain::new(vocab, 4, seed ^ 0xC0FFEE),
            seq_len,
            repeat_fraction,
            seed,
        }
    }

    /// The underlying Markov chain (the zero-shot probes need it).
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.chain.vocab()
    }

    fn gen_sequence(&self, rng: &mut SeedStream) -> (Vec<usize>, Vec<usize>) {
        // Generate seq_len + 1 tokens; inputs are [0..L], targets [1..=L].
        let l = self.seq_len;
        let mut stream = Vec::with_capacity(l + 1);
        if rng.unit() as f64 >= self.repeat_fraction {
            // Markov sequence.
            let mut t = rng.below(self.vocab());
            stream.push(t);
            for _ in 0..l {
                t = self.chain.step(t, rng);
                stream.push(t);
            }
        } else {
            // Repetition sequence: random window repeated to fill.
            let window = (l / 2).max(2);
            let mut prefix = Vec::with_capacity(window);
            let mut t = rng.below(self.vocab());
            prefix.push(t);
            for _ in 1..window {
                t = self.chain.step(t, rng);
                prefix.push(t);
            }
            while stream.len() < l + 1 {
                let i = stream.len() % window;
                stream.push(prefix[i]);
            }
        }
        let tokens = stream[..l].to_vec();
        let targets = stream[1..=l].to_vec();
        (tokens, targets)
    }

    /// Samples a training batch of `n_seq` sequences for global step
    /// `step`. Batches are a pure function of `(seed, step)`, so every
    /// data-parallel replica can derive its own shard deterministically.
    pub fn train_batch(&self, n_seq: usize, step: u64) -> Batch {
        self.batch_from_stream(
            n_seq,
            SeedStream::new(self.seed ^ (step.wrapping_mul(0x9E3779B97F4A7C15))),
        )
    }

    /// Samples a validation batch (disjoint RNG stream from training).
    pub fn validation_batch(&self, n_seq: usize, index: u64) -> Batch {
        self.batch_from_stream(
            n_seq,
            SeedStream::new(self.seed ^ 0x5A17_u64 ^ (index.wrapping_mul(0xD1B54A32D192ED03))),
        )
    }

    fn batch_from_stream(&self, n_seq: usize, mut rng: SeedStream) -> Batch {
        let mut tokens = Vec::with_capacity(n_seq * self.seq_len);
        let mut targets = Vec::with_capacity(n_seq * self.seq_len);
        for _ in 0..n_seq {
            let (t, y) = self.gen_sequence(&mut rng);
            tokens.extend(t);
            targets.extend(y);
        }
        Batch { tokens, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_steps_stay_in_vocab() {
        let chain = MarkovChain::new(16, 3, 1);
        let mut rng = SeedStream::new(2);
        let mut t = 0;
        for _ in 0..1000 {
            t = chain.step(t, &mut rng);
            assert!(t < 16);
        }
    }

    #[test]
    fn chain_respects_transition_support() {
        let chain = MarkovChain::new(16, 3, 1);
        let mut rng = SeedStream::new(3);
        for start in 0..16 {
            let allowed: Vec<usize> = chain.successors[start].iter().map(|&(t, _)| t).collect();
            for _ in 0..50 {
                let next = chain.step(start, &mut rng);
                assert!(allowed.contains(&next), "{start} -> {next} not allowed");
            }
        }
    }

    #[test]
    fn entropy_floor_matches_branching() {
        // branching 1 => deterministic => zero entropy.
        let det = MarkovChain::new(8, 1, 0);
        assert!(det.entropy_floor_nats() < 1e-6);
        // branching 4 with weights (8/15, 4/15, 2/15, 1/15): H ~ 1.19 nats.
        let chain = MarkovChain::new(8, 4, 0);
        let h = chain.entropy_floor_nats();
        assert!(h > 0.9 && h < 1.4, "entropy {h}");
    }

    #[test]
    fn most_likely_successor_has_max_probability() {
        let chain = MarkovChain::new(12, 4, 5);
        for t in 0..12 {
            let best = chain.most_likely_successor(t);
            let best_p = chain.successors[t]
                .iter()
                .find(|&&(s, _)| s == best)
                .unwrap()
                .1;
            for &(_, p) in &chain.successors[t] {
                assert!(best_p >= p);
            }
        }
    }

    #[test]
    fn batches_are_deterministic_per_step() {
        let corpus = SyntheticCorpus::new(32, 16, 0.5, 9);
        assert_eq!(corpus.train_batch(4, 7), corpus.train_batch(4, 7));
        assert_ne!(corpus.train_batch(4, 7), corpus.train_batch(4, 8));
    }

    #[test]
    fn validation_stream_differs_from_training() {
        let corpus = SyntheticCorpus::new(32, 16, 0.5, 9);
        assert_ne!(corpus.train_batch(4, 0), corpus.validation_batch(4, 0));
    }

    #[test]
    fn targets_are_shifted_tokens() {
        let corpus = SyntheticCorpus::new(32, 16, 0.0, 1);
        let b = corpus.train_batch(2, 0);
        // Within each sequence, target[i] == token[i+1].
        for s in 0..2 {
            for i in 0..15 {
                assert_eq!(b.targets[s * 16 + i], b.tokens[s * 16 + i + 1]);
            }
        }
    }

    #[test]
    fn repetition_sequences_actually_repeat() {
        let corpus = SyntheticCorpus::new(32, 16, 1.0, 2);
        let b = corpus.train_batch(3, 0);
        for s in 0..3 {
            let seq = &b.tokens[s * 16..(s + 1) * 16];
            let window = 8;
            for i in window..16 {
                assert_eq!(seq[i], seq[i - window], "sequence {s} not periodic");
            }
        }
    }

    #[test]
    fn batch_shapes_are_consistent() {
        let corpus = SyntheticCorpus::new(32, 8, 0.5, 3);
        let b = corpus.train_batch(5, 1);
        assert_eq!(b.tokens.len(), 40);
        assert_eq!(b.targets.len(), 40);
        assert!(b.tokens.iter().all(|&t| t < 32));
    }
}
