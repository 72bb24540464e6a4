//! How a tuning budget splits between the joint layout stage and the
//! loop stage (paper §5.3, §7).

/// The joint stage's share of a network's budget: the paper tunes each
/// network with 8,000 joint and 12,000 loop measurements.
pub const NETWORK_JOINT_SHARE: f64 = 0.4;

/// The joint stage's share of a single operator's budget: the paper tunes
/// each operator with 300 joint and 700 loop measurements.
pub const OPERATOR_JOINT_SHARE: f64 = 0.3;

/// `(joint, loop)` budgets: the joint stage takes `share` of `budget`,
/// rounded down, and the loop stage the rest, so the two stages spend the
/// whole budget.
pub fn split_budget(budget: u64, share: f64) -> (u64, u64) {
    let joint = (budget as f64 * share) as u64;
    (joint, budget - joint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_the_paper_shares_on_every_budget() {
        for b in 0..=100_000u64 {
            let (joint, rest) = split_budget(b, NETWORK_JOINT_SHARE);
            assert_eq!(joint, (b as f64 * 0.4) as u64, "budget {b}");
            // The integer form some harnesses used for the joint share.
            assert_eq!(joint, b * 2 / 5, "budget {b}");
            assert_eq!(joint + rest, b, "budget {b}");
            let (joint, rest) = split_budget(b, OPERATOR_JOINT_SHARE);
            assert_eq!(joint, (b as f64 * 0.3) as u64, "budget {b}");
            assert_eq!(joint + rest, b, "budget {b}");
        }
    }
}
