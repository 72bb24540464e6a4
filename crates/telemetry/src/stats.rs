//! Small statistics helpers used when producing trace records.

/// Average ranks (1-based) with ties sharing their mean rank.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..=j are tied; their mean 1-based rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation between two equal-length samples.
///
/// Returns 0 for degenerate inputs (fewer than two points, or either
/// side constant), which reads as "no ranking signal".
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman inputs must pair up");
    if a.len() < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let n = ra.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        let dx = x - mean;
        let dy = y - mean;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement_is_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [9.0, 7.0, 5.0, 3.0];
        assert!((spearman(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_share_mean_rank() {
        assert_eq!(ranks(&[3.0, 1.0, 3.0]), vec![2.5, 1.0, 2.5]);
    }

    #[test]
    fn tied_values_use_average_ranks() {
        // With a = [1, 2, 2, 3] the tied pair takes rank 2.5 on both
        // slots, giving rho = 4.5 / sqrt(4.5 * 5) = sqrt(0.9) against a
        // strictly increasing partner — not 1.0, which a naive
        // first-occurrence ranking would report.
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let want = 0.9f64.sqrt();
        assert!((spearman(&a, &b) - want).abs() < 1e-12);
        // Symmetric in its arguments.
        assert!((spearman(&b, &a) - want).abs() < 1e-12);
        // Ties on both sides at matching positions still correlate
        // perfectly.
        let c = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&a, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_read_as_zero() {
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), 0.0);
    }
}
