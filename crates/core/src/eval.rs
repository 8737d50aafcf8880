//! Evaluation: Top-1 accuracy and confusion matrices (the paper's Table 2
//! and Figure 5 metrics).

use crate::error::CoreError;
use crate::Result;

/// How many of `preds` equal their label, the count behind every Top-1
/// accuracy: [`CoreError::Dataset`] unless there is one label per
/// prediction.
pub(crate) fn count_correct(preds: &[usize], labels: &[usize]) -> Result<usize> {
    let (n, got) = (preds.len(), labels.len());
    if n != got {
        return Err(CoreError::Dataset(format!(
            "{got} labels for {n} predictions"
        )));
    }
    Ok(preds.iter().zip(labels).filter(|(a, b)| a == b).count())
}

/// A square confusion matrix; rows are true classes, columns predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>, // row-major [true][pred]
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Builds a matrix from parallel label/prediction slices.
    ///
    /// # Errors
    ///
    /// Returns an error if lengths differ or any index is out of range.
    pub fn from_predictions(
        labels: &[usize],
        predictions: &[usize],
        classes: usize,
    ) -> Result<Self> {
        if labels.len() != predictions.len() {
            return Err(CoreError::Dataset(format!(
                "{} labels vs {} predictions",
                labels.len(),
                predictions.len()
            )));
        }
        let mut m = ConfusionMatrix::new(classes);
        for (&l, &p) in labels.iter().zip(predictions) {
            m.record(l, p)?;
        }
        Ok(m)
    }

    /// Records one observation.
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn record(&mut self, truth: usize, prediction: usize) -> Result<()> {
        if truth >= self.classes || prediction >= self.classes {
            return Err(CoreError::Dataset(format!(
                "class index out of range: ({truth}, {prediction}) for {} classes",
                self.classes
            )));
        }
        self.counts[truth * self.classes + prediction] += 1;
        Ok(())
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Raw count for `(truth, prediction)`, or `None` when either index
    /// is outside the matrix.
    pub fn count(&self, truth: usize, prediction: usize) -> Option<usize> {
        if truth >= self.classes || prediction >= self.classes {
            return None;
        }
        self.counts.get(truth * self.classes + prediction).copied()
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Top-1 accuracy (diagonal mass / total), 0.0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = (0..self.classes)
            .map(|i| self.count(i, i).unwrap_or(0))
            .sum();
        diag as f64 / total as f64
    }

    /// Per-class recall (diagonal / row sum), `None` for empty rows.
    pub fn per_class_accuracy(&self) -> Vec<Option<f64>> {
        (0..self.classes)
            .map(|i| {
                let row: usize = (0..self.classes)
                    .map(|j| self.count(i, j).unwrap_or(0))
                    .sum();
                if row == 0 {
                    None
                } else {
                    Some(self.count(i, i).unwrap_or(0) as f64 / row as f64)
                }
            })
            .collect()
    }

    /// Row-normalized rates: `rate[i][j] = P(pred=j | true=i)`.
    pub fn row_normalized(&self) -> Vec<Vec<f64>> {
        (0..self.classes)
            .map(|i| {
                let row: usize = (0..self.classes)
                    .map(|j| self.count(i, j).unwrap_or(0))
                    .sum();
                (0..self.classes)
                    .map(|j| {
                        if row == 0 {
                            0.0
                        } else {
                            self.count(i, j).unwrap_or(0) as f64 / row as f64
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Renders an ASCII table with row/column class names (paper Figure 5
    /// style, row-normalized percentages).
    pub fn to_table(&self, names: &[&str]) -> String {
        let rates = self.row_normalized();
        let mut out = String::new();
        out.push_str(&format!("{:>18} |", "true \\ pred"));
        for name in names.iter().take(self.classes) {
            out.push_str(&format!(" {:>8}", truncate(name, 8)));
        }
        out.push('\n');
        out.push_str(&"-".repeat(20 + 9 * self.classes));
        out.push('\n');
        for (i, row) in rates.iter().enumerate() {
            let name = names.get(i).copied().unwrap_or("?");
            out.push_str(&format!("{:>18} |", truncate(name, 18)));
            for &r in row {
                out.push_str(&format!(" {:>7.1}%", r * 100.0));
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ConfusionMatrix({} classes, {} samples, top-1 {:.2}%)",
            self.classes,
            self.total(),
            self.accuracy() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_have_unit_accuracy() {
        let m = ConfusionMatrix::from_predictions(&[0, 1, 2], &[0, 1, 2], 3).unwrap();
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn accuracy_counts_diagonal_only() {
        let m = ConfusionMatrix::from_predictions(&[0, 0, 1, 1], &[0, 1, 1, 0], 2).unwrap();
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.count(0, 1), Some(1));
        assert_eq!(m.count(1, 0), Some(1));
    }

    #[test]
    fn count_outside_the_matrix_is_none() {
        let labels = [0, 1, 1, 1, 2, 5];
        let m = ConfusionMatrix::from_predictions(&labels, &labels, 6).unwrap();
        assert_eq!(m.count(1, 1), Some(3));
        // Row-major, `(0, 7)` would land on `(1, 1)`'s cell.
        assert_eq!(m.count(0, 7), None);
        assert_eq!(m.count(6, 0), None);
        assert_eq!(m.count(5, 5), Some(1));
    }

    #[test]
    fn row_normalization_sums_to_one_for_nonempty_rows() {
        let m = ConfusionMatrix::from_predictions(&[0, 0, 0, 1], &[0, 1, 1, 1], 3).unwrap();
        let rates = m.row_normalized();
        assert!((rates[0].iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((rates[1].iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(rates[2].iter().sum::<f64>(), 0.0); // empty row
    }

    #[test]
    fn per_class_accuracy_handles_empty_rows() {
        let m = ConfusionMatrix::from_predictions(&[0], &[0], 2).unwrap();
        let per = m.per_class_accuracy();
        assert_eq!(per[0], Some(1.0));
        assert_eq!(per[1], None);
    }

    #[test]
    fn mismatched_lengths_and_bad_indices_are_rejected() {
        assert!(ConfusionMatrix::from_predictions(&[0], &[0, 1], 2).is_err());
        assert!(ConfusionMatrix::from_predictions(&[5], &[0], 2).is_err());
    }

    #[test]
    fn table_renders_names_and_rates() {
        let m = ConfusionMatrix::from_predictions(&[0, 1], &[0, 0], 2).unwrap();
        let table = m.to_table(&["Normal", "Texting"]);
        assert!(table.contains("Normal"));
        assert!(table.contains("100.0%"));
    }

    #[test]
    fn display_summarizes() {
        let m = ConfusionMatrix::from_predictions(&[0, 1], &[0, 1], 2).unwrap();
        let s = m.to_string();
        assert!(s.contains("100.00%"));
    }
}
