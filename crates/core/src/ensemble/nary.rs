//! The Bayesian-network combiner (paper §4.2): each class gets its own BN
//! whose parent nodes are the per-stream models' predictions — the CNN's
//! and the IMU model's in the paper, any ordered list of registered
//! streams here — and whose child node indicates class membership. The
//! conditional probability tables are computed from observation counts on
//! training data.
//!
//! The flattened CPT layout folds the parent indices lexicographically —
//! `idx = ((c · card₀ + a₀) · card₁ + a₁) …` — so for the paper's pair,
//! cards `[6, 3]`, it is `(c · 6 + a) · 3 + b`, and inference visits it as
//! the two nested loops `Σ_a Σ_b p_cnn(a) · p_imu(b) · CPT_c[a][b]` would:
//! same order, same zero-weight skips, same normalization.

use darnet_tensor::Tensor;

use crate::error::CoreError;
use crate::Result;

/// The N-parent per-class Bayesian-network ensemble.
///
/// For class `c` the CPT stores `P(Y = c | A₀ = a₀, …, Aₖ = aₖ)` over the
/// registered parents' predicted labels. Inference marginalizes over every
/// parent using its full probability output:
///
/// `score(c) = Σ_{a₀} … Σ_{aₖ}  Π p_k(a_k) · CPT_c[a₀]…[aₖ]`
///
/// A parent missing at inference time (an unavailable stream) is summed
/// out with a uniform posterior over its classes, so any healthy subset of
/// two or more parents still yields a calibrated fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct NaryBayesianCombiner {
    classes: usize,
    parent_cards: Vec<usize>,
    /// `cpt[c][a₀]…[aₖ]`, flattened lexicographically.
    cpt: Vec<f32>,
    alpha: f32,
    fitted: bool,
}

impl NaryBayesianCombiner {
    /// Creates an unfitted combiner for `classes` output classes over
    /// parents with the given cardinalities (registry order), with Laplace
    /// smoothing `alpha`.
    pub fn new(classes: usize, parent_cards: Vec<usize>, alpha: f32) -> Self {
        let stride: usize = parent_cards.iter().product();
        NaryBayesianCombiner {
            classes,
            cpt: vec![0.0; classes * stride],
            parent_cards,
            alpha,
            fitted: false,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Parent cardinalities in registry order.
    pub fn parent_cards(&self) -> &[usize] {
        &self.parent_cards
    }

    /// Whether [`NaryBayesianCombiner::fit`] has run.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Product of all parent cardinalities: the per-class CPT block size.
    fn stride(&self) -> usize {
        self.parent_cards.iter().product()
    }

    /// Estimates the CPTs from training observations: each parent's
    /// probability output (`[n, card_k]`, registry order) and the true
    /// labels. Counting uses each parent's argmax (the "number of
    /// true-positive observations" of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] on shape/label mismatches, and for a
    /// smoothing `alpha` that is not finite and positive: at zero a parent
    /// combination training never saw gets the CPT entry 0/0 = NaN, and
    /// below zero entries fall below zero.
    pub fn fit(&mut self, parent_probs: &[&Tensor], labels: &[usize]) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(CoreError::Dataset(format!(
                "Laplace smoothing alpha must be finite and positive, got {}",
                self.alpha
            )));
        }
        if parent_probs.len() != self.parent_cards.len() {
            return Err(CoreError::Dataset(format!(
                "{} parent tensors for {} registered parents",
                parent_probs.len(),
                self.parent_cards.len()
            )));
        }
        let n = labels.len();
        for (k, probs) in parent_probs.iter().enumerate() {
            if probs.dims() != [n, self.parent_cards[k]] {
                return Err(CoreError::Dataset(format!(
                    "parent {k} fit shape mismatch: {:?} for {n} labels of width {}",
                    probs.dims(),
                    self.parent_cards[k]
                )));
            }
        }
        let preds: Vec<Vec<usize>> = parent_probs
            .iter()
            .map(|p| p.argmax_rows())
            .collect::<std::result::Result<_, _>>()?;
        let stride = self.stride();
        let mut counts = vec![0.0f32; self.cpt.len()];
        for i in 0..n {
            let label = labels[i];
            if label >= self.classes {
                return Err(CoreError::Dataset(format!(
                    "label {label} out of range for {} classes",
                    self.classes
                )));
            }
            let mut base = 0usize;
            for (k, p) in preds.iter().enumerate() {
                base = base * self.parent_cards[k] + p[i];
            }
            counts[label * stride + base] += 1.0;
        }
        // Normalize over c for each parent combination with Laplace
        // smoothing.
        for base in 0..stride {
            let total: f32 = (0..self.classes).map(|c| counts[c * stride + base]).sum();
            let denom = total + self.alpha * self.classes as f32;
            for c in 0..self.classes {
                let i = c * stride + base;
                self.cpt[i] = (counts[i] + self.alpha) / denom;
            }
        }
        self.fitted = true;
        Ok(())
    }

    /// Combines one sample's parent posteriors (all parents present) into
    /// normalized class scores.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting or on width
    /// mismatches.
    pub fn combine_n(&self, parents: &[&[f32]]) -> Result<Vec<f32>> {
        let mut scores = Vec::with_capacity(self.classes);
        self.combine_n_into(parents, &mut scores)?;
        Ok(scores)
    }

    /// [`NaryBayesianCombiner::combine_n`] writing into a caller-provided
    /// buffer (cleared first) — the zero-alloc fusion path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting or on width
    /// mismatches.
    pub fn combine_n_into(&self, parents: &[&[f32]], scores: &mut Vec<f32>) -> Result<()> {
        const MAX_PARENTS: usize = 8;
        if parents.len() > MAX_PARENTS {
            return Err(CoreError::Dataset(format!(
                "{} parents exceeds the {MAX_PARENTS}-stream registry cap",
                parents.len()
            )));
        }
        let mut subset: [Option<&[f32]>; MAX_PARENTS] = [None; MAX_PARENTS];
        for (slot, p) in subset.iter_mut().zip(parents) {
            *slot = Some(p);
        }
        self.combine_subset_into(&subset[..parents.len()], scores)
    }

    /// Combines whichever parents are present (`Some`), summing absent
    /// parents out with a uniform posterior. This is the healthy-subset
    /// fusion primitive: the engine drops an unavailable stream by passing
    /// `None` in its registry slot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting, a dataset error on
    /// width mismatches, a wrong parent count, or when every parent is
    /// absent.
    pub fn combine_subset_into(
        &self,
        parents: &[Option<&[f32]>],
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        if !self.fitted {
            return Err(CoreError::NotReady("bayesian combiner not fitted".into()));
        }
        if parents.len() != self.parent_cards.len() {
            return Err(CoreError::Dataset(format!(
                "{} parent rows for {} registered parents",
                parents.len(),
                self.parent_cards.len()
            )));
        }
        let mut present = 0usize;
        for (k, p) in parents.iter().enumerate() {
            if let Some(row) = p {
                if row.len() != self.parent_cards[k] {
                    return Err(CoreError::Dataset(format!(
                        "parent {k} expects {} probabilities, got {}",
                        self.parent_cards[k],
                        row.len()
                    )));
                }
                present += 1;
            }
        }
        if present == 0 {
            return Err(CoreError::NotReady(
                "every parent stream is absent — nothing to fuse".into(),
            ));
        }
        scores.clear();
        scores.resize(self.classes, 0.0);
        self.descend(parents, 0, 1.0, 0, scores);
        let total: f32 = scores.iter().sum();
        if total > 0.0 {
            for s in scores.iter_mut() {
                *s /= total;
            }
        }
        Ok(())
    }

    /// Recursive lexicographic descent over the parent label space. The
    /// weight threading starts at `1.0`, so the first level's weight is
    /// `1.0 · p₀` — bitwise `p₀` — and every deeper level multiplies in
    /// nested-loop order; a zero weight prunes its subtree.
    fn descend(
        &self,
        parents: &[Option<&[f32]>],
        depth: usize,
        w: f32,
        base: usize,
        scores: &mut [f32],
    ) {
        if depth == parents.len() {
            let stride = self.stride();
            for (c, s) in scores.iter_mut().enumerate() {
                *s += w * self.cpt[c * stride + base];
            }
            return;
        }
        let card = self.parent_cards[depth];
        match parents[depth] {
            Some(probs) => {
                for (a, &p) in probs.iter().enumerate().take(card) {
                    let w_new = w * p;
                    if w_new == 0.0 {
                        continue;
                    }
                    self.descend(parents, depth + 1, w_new, base * card + a, scores);
                }
            }
            None => {
                // Absent parent: marginalize with a uniform posterior.
                let p = 1.0 / card as f32;
                for a in 0..card {
                    let w_new = w * p;
                    if w_new == 0.0 {
                        continue;
                    }
                    self.descend(parents, depth + 1, w_new, base * card + a, scores);
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;
    use darnet_tensor::SplitMix64;

    fn random_rows(rng: &mut SplitMix64, n: usize, width: usize, zeros: bool) -> Vec<f32> {
        let mut rows = Vec::with_capacity(n * width);
        for _ in 0..n {
            let mut row: Vec<f32> = (0..width)
                .map(|_| {
                    if zeros && rng.next_f64() < 0.2 {
                        0.0
                    } else {
                        rng.next_f64() as f32
                    }
                })
                .collect();
            let total: f32 = row.iter().sum();
            if total > 0.0 {
                for v in &mut row {
                    *v /= total;
                }
            }
            rows.extend_from_slice(&row);
        }
        rows
    }

    /// Seeded `[n, 6]` / `[n, 3]` posteriors and 6-class labels.
    fn pair_observations(rng: &mut SplitMix64, n: usize) -> (Tensor, Tensor, Vec<usize>) {
        let cnn = Tensor::from_vec(random_rows(rng, n, 6, false), &[n, 6]).unwrap();
        let imu = Tensor::from_vec(random_rows(rng, n, 3, false), &[n, 3]).unwrap();
        let labels = (0..n).map(|_| rng.next_usize(6)).collect();
        (cnn, imu, labels)
    }

    fn fitted_pair(seed: u64) -> NaryBayesianCombiner {
        let (cnn, imu, labels) = pair_observations(&mut SplitMix64::new(seed), 64);
        let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        nary.fit(&[&cnn, &imu], &labels).unwrap();
        nary
    }

    #[test]
    fn two_parent_inference_is_bitwise_the_nested_loop() {
        // The paper's pair formula, frozen: Σ_a Σ_b p(a)·p(b)·CPT_c[a][b]
        // with zero-weight skips, then one normalization.
        let nary = fitted_pair(0x17A5);
        let mut rng = SplitMix64::new(99);
        for case in 0..200 {
            let cnn = random_rows(&mut rng, 1, 6, true);
            let imu = random_rows(&mut rng, 1, 3, true);
            let mut want = [0.0f32; 6];
            for (a, &pa) in cnn.iter().enumerate().filter(|(_, &pa)| pa != 0.0) {
                for (b, &pb) in imu.iter().enumerate().filter(|(_, &pb)| pa * pb != 0.0) {
                    for (c, s) in want.iter_mut().enumerate() {
                        *s += pa * pb * nary.cpt[(c * 6 + a) * 3 + b];
                    }
                }
            }
            let total: f32 = want.iter().sum();
            if total > 0.0 {
                want.iter_mut().for_each(|s| *s /= total);
            }
            let got = nary.combine_n(&[&cnn, &imu]).unwrap();
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case} class {i}");
            }
        }
    }

    /// A smoothing `alpha` that is zero, negative or not finite is refused
    /// by `fit`, which leaves the combiner unfitted; at zero a parent
    /// combination the training set never shows would otherwise hold NaN.
    #[test]
    fn fit_refuses_an_alpha_that_is_not_finite_and_positive() {
        let (cnn, imu, labels) = pair_observations(&mut SplitMix64::new(0xA1FA), 8);
        for alpha in [0.0, -0.5, f32::NAN, f32::INFINITY] {
            let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], alpha);
            let got = nary.fit(&[&cnn, &imu], &labels);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "alpha {alpha}");
            assert!(!nary.is_fitted(), "alpha {alpha}");
        }
        let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], 0.01);
        nary.fit(&[&cnn, &imu], &labels).unwrap();
        assert!(nary.cpt.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn two_parent_fit_is_bitwise_the_counted_table() {
        // Argmax counts per (label, a, b), Laplace-smoothed and
        // normalized over the label, frozen.
        let (cnn, imu, labels) = pair_observations(&mut SplitMix64::new(0xF1F1), 96);
        let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        nary.fit(&[&cnn, &imu], &labels).unwrap();
        let (a_pred, b_pred) = (cnn.argmax_rows().unwrap(), imu.argmax_rows().unwrap());
        let mut counts = [[[0.0f32; 3]; 6]; 6];
        for (i, &label) in labels.iter().enumerate() {
            counts[label][a_pred[i]][b_pred[i]] += 1.0;
        }
        for a in 0..6 {
            for b in 0..3 {
                let total: f32 = (0..6).map(|c| counts[c][a][b]).sum();
                for (c, table) in counts.iter().enumerate() {
                    let want = (table[a][b] + 1.0) / (total + 6.0);
                    let got = nary.cpt[(c * 6 + a) * 3 + b];
                    assert_eq!(want.to_bits(), got.to_bits(), "cpt({c},{a},{b})");
                }
            }
        }
    }

    /// A toy world where the CNN confuses classes 0/1 but the IMU resolves
    /// them perfectly (class 0 → imu 0, class 1 → imu 1).
    fn toy_fit() -> NaryBayesianCombiner {
        let n = 200;
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let rows = |strong: f32| -> Vec<f32> {
            let row = |&label: &usize| match label {
                0 => [strong, 1.0 - strong],
                _ => [1.0 - strong, strong],
            };
            labels.iter().flat_map(row).collect()
        };
        // CNN: barely informative (52/48). IMU: highly informative.
        let cnn = Tensor::from_vec(rows(0.52), &[n, 2]).unwrap();
        let imu = Tensor::from_vec(rows(0.95), &[n, 2]).unwrap();
        let mut comb = NaryBayesianCombiner::new(2, vec![2, 2], 1.0);
        comb.fit(&[&cnn, &imu], &labels).unwrap();
        comb
    }

    #[test]
    fn cpt_columns_are_distributions() {
        let comb = toy_fit();
        for column in 0..4 {
            let total: f32 = (0..2).map(|c| comb.cpt[c * 4 + column]).sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn combiner_trusts_the_informative_modality() {
        let comb = toy_fit();
        // CNN says class 0 weakly; IMU says class 1 strongly.
        let scores = comb.combine_n(&[&[0.52, 0.48], &[0.05, 0.95]]).unwrap();
        assert!(scores[1] > scores[0], "{scores:?}");
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // A parent combination the fit rarely saw is still a valid
        // distribution (Laplace smoothing).
        let scores = comb.combine_n(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(scores.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn combined_accuracy_beats_weak_modality_alone() {
        // Generative model: the CNN is right 70% of the time, the IMU 95%.
        // The fused posterior should track the more reliable parent and
        // beat the CNN alone — the structural claim behind the paper's
        // Table 2.
        let gen = |i: usize| -> (usize, [f32; 2], [f32; 2]) {
            let label = i % 2;
            let toward = |right: bool, conf: f32| -> [f32; 2] {
                match if right { label } else { 1 - label } {
                    0 => [conf, 1.0 - conf],
                    _ => [1.0 - conf, conf],
                }
            };
            let (cnn_right, imu_right) = (i % 10 < 7, !i.is_multiple_of(20));
            (label, toward(cnn_right, 0.7), toward(imu_right, 0.95))
        };
        let n_fit = 400;
        let (mut cnn_rows, mut imu_rows, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        for (l, c, m) in (0..n_fit).map(gen) {
            labels.push(l);
            cnn_rows.extend_from_slice(&c);
            imu_rows.extend_from_slice(&m);
        }
        let cnn = Tensor::from_vec(cnn_rows, &[n_fit, 2]).unwrap();
        let imu = Tensor::from_vec(imu_rows, &[n_fit, 2]).unwrap();
        let mut comb = NaryBayesianCombiner::new(2, vec![2, 2], 1.0);
        comb.fit(&[&cnn, &imu], &labels).unwrap();
        // Evaluate on a phase-shifted sample of the same distribution.
        let n = 200;
        let (mut correct_comb, mut correct_cnn) = (0, 0);
        for (label, cnn, imu) in (3..n + 3).map(gen) {
            let scores = comb.combine_n(&[&cnn, &imu]).unwrap();
            correct_comb += usize::from((scores[0] < scores[1]) == (label == 1));
            correct_cnn += usize::from((cnn[0] < cnn[1]) == (label == 1));
        }
        assert!(
            correct_comb > correct_cnn,
            "combined {correct_comb} vs cnn {correct_cnn}"
        );
        assert!(correct_comb as f32 / n as f32 > 0.85);
    }

    #[test]
    fn fit_validates_shapes_and_labels() {
        let mut comb = NaryBayesianCombiner::new(2, vec![2, 2], 1.0);
        let (cnn, imu) = (Tensor::zeros(&[3, 2]), Tensor::zeros(&[3, 2]));
        assert!(comb.fit(&[&cnn, &imu], &[0, 1]).is_err());
        assert!(comb.fit(&[&cnn, &imu], &[0, 1, 5]).is_err());
        assert!(comb.fit(&[&cnn], &[0, 1, 1]).is_err());
        assert!(!comb.is_fitted());
    }

    #[test]
    fn three_parent_fit_and_inference_work() {
        let mut rng = SplitMix64::new(7);
        let n = 120;
        let a = Tensor::from_vec(random_rows(&mut rng, n, 8, false), &[n, 8]).unwrap();
        let b = Tensor::from_vec(random_rows(&mut rng, n, 8, false), &[n, 8]).unwrap();
        let c = Tensor::from_vec(random_rows(&mut rng, n, 3, false), &[n, 3]).unwrap();
        let labels: Vec<usize> = (0..n).map(|i| i % 8).collect();
        let mut comb = NaryBayesianCombiner::new(8, vec![8, 8, 3], 1.0);
        comb.fit(&[&a, &b, &c], &labels).unwrap();
        let pa = &a.data()[..8];
        let pb = &b.data()[..8];
        let pc = &c.data()[..3];
        let scores = comb.combine_n(&[pa, pb, pc]).unwrap();
        assert_eq!(scores.len(), 8);
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(scores.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn absent_parent_marginalizes_uniformly() {
        let nary = fitted_pair(0xAB);
        let mut rng = SplitMix64::new(3);
        let cnn = random_rows(&mut rng, 1, 6, false);
        // Explicit uniform IMU vs absent IMU must agree (the uniform
        // marginalization is exactly a uniform posterior).
        let uniform = vec![1.0 / 3.0; 3];
        let explicit = nary.combine_n(&[&cnn, &uniform]).unwrap();
        let mut absent = Vec::new();
        nary.combine_subset_into(&[Some(&cnn), None], &mut absent)
            .unwrap();
        for (a, b) in explicit.iter().zip(&absent) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn all_absent_or_unfitted_is_an_error() {
        let nary = fitted_pair(0xCD);
        let mut out = Vec::new();
        assert!(matches!(
            nary.combine_subset_into(&[None, None], &mut out),
            Err(CoreError::NotReady(_))
        ));
        let fresh = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        assert!(matches!(
            fresh.combine_n_into(&[&[0.5; 6][..], &[0.5; 3][..]], &mut out),
            Err(CoreError::NotReady(_))
        ));
        // Wrong widths and wrong parent counts are dataset errors.
        assert!(nary.combine_n(&[&[0.5; 5][..], &[0.5; 3][..]]).is_err());
        assert!(nary.combine_n(&[&[0.5; 6][..]]).is_err());
    }
}
