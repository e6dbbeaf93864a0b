//! The paper suite's reference rows: `(Procnew µs, Ntentative, duplicate
//! stable tuples)` for Fig. 15 (Delay & Delay then Process & Process,
//! depths 1–4, 30 s failure) followed by Table III (2–60 s failures).
//! The simulator is deterministic, so every pass must reproduce them
//! exactly.

/// Reference rows, in [`crate::live::paper_suite`] order.
pub const ROWS: &[(u64, u64, u64)] = &[
    // Fig. 15, Delay & Delay, depths 1-4.
    (1812040, 14847, 0),
    (5407160, 16197, 0),
    (8106998, 17700, 0),
    (11007000, 19347, 0),
    // Fig. 15, Process & Process, depths 1-4.
    (1809995, 16347, 0),
    (2207075, 17697, 0),
    (2604995, 19200, 0),
    (3005000, 20847, 0),
    // Table III: 2, 4, 6, 8, 10, 12, 14, 16, 30, 45, 60 s failures.
    (2117000, 0, 0),
    (2708219, 4674, 0),
    (2708219, 7194, 0),
    (2708219, 9534, 0),
    (2708219, 12054, 0),
    (2708219, 14574, 0),
    (2708219, 16914, 0),
    (2708219, 19434, 0),
    (2708219, 36714, 0),
    (2708219, 55074, 0),
    (2708219, 73434, 0),
];

/// Rows of `got` that differ from the reference (a missing or extra row
/// counts as a mismatch).
pub fn mismatches(got: &[(u64, u64, u64)]) -> u64 {
    let differing = got.iter().zip(ROWS).filter(|(g, r)| g != r).count();
    (differing + got.len().abs_diff(ROWS.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_differing_missing_and_extra_rows() {
        assert_eq!(mismatches(ROWS), 0);
        let mut got = ROWS.to_vec();
        got[3].1 += 1;
        assert_eq!(mismatches(&got), 1);
        got.pop();
        assert_eq!(mismatches(&got), 2);
        assert_eq!(mismatches(&[]), ROWS.len() as u64);
    }
}
