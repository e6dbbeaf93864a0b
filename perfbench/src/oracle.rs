//! The correctness oracle over the client's arrival trace.
//!
//! The benchmark's inputs are known exactly: each of the three sources
//! emits sequence numbers `1..=n` with `stime = id / rate`. After the
//! drain the oracle rebuilds the client's stable output from the trace —
//! an UNDO retracts every entry after its target id — and compares the
//! multiset of stable stimes with the multiset the sources produced.
//! Every expected tuple that is missing from the stable output (including
//! tuples still tentative at the deadline, their run not closed by UNDO
//! plus REC_DONE) and every extra copy counts as one failed tuple. Extra
//! copies and stable ids that do not strictly increase make the output
//! incorrect.

use borealis_dpc::TraceEntry;
use borealis_types::{Time, TupleKind};
use std::collections::BTreeMap;

/// What the oracle found.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Tuples the sources offered.
    pub offered: u64,
    /// Stable tuples in the rebuilt output.
    pub stable: u64,
    /// Offered tuples absent from the stable output.
    pub missing: u64,
    /// Stime range `(first, last)` of the missing tuples, to tell a lost
    /// slice inside the episode from a tail that never stabilized.
    pub missing_span: Option<(Time, Time)>,
    /// Stable tuples beyond the offered multiplicity (duplicates or
    /// tuples the sources never produced).
    pub extra: u64,
    /// Stable ids that did not strictly increase.
    pub id_violations: u64,
    /// Tentative tuples still in the rebuilt output (never undone).
    pub uncorrected_tentative: u64,
    /// Tentative runs not followed by a REC_DONE.
    pub unclosed_runs: u64,
    /// Tentative tuples received (the paper's Ntentative).
    pub tentative_received: u64,
    /// Latency (arrival − stime, µs) of every tuple in the rebuilt stable
    /// output, at its stable delivery.
    pub stable_latency_us: Vec<u64>,
    /// Arrival times of the stable output, in arrival order.
    pub stable_arrivals: Vec<Time>,
}

impl Verdict {
    /// Offered tuples not delivered stable exactly once.
    pub fn failed(&self) -> u64 {
        self.missing + self.extra
    }

    /// True when every stable tuple delivered is right: no duplicate or
    /// foreign tuple and stable ids in order. Tuples that never stabilized
    /// by the drain deadline — missing, or still tentative in an unclosed
    /// run — are failures, not wrong output.
    pub fn correct(&self) -> bool {
        self.extra == 0 && self.id_violations == 0
    }
}

/// The stime a source stamps on sequence number `id` at `rate` tuples/s —
/// the same formula the data sources use.
pub fn stime_of(id: u64, rate: f64) -> Time {
    Time((id as f64 * 1_000_000.0 / rate) as u64)
}

/// Multiset of the stimes `sources` sources produce, each emitting
/// `1..=per_source` at `rate`.
pub fn expected_stimes(sources: u32, per_source: u64, rate: f64) -> BTreeMap<u64, u64> {
    let mut want = BTreeMap::new();
    for id in 1..=per_source {
        *want.entry(stime_of(id, rate).0).or_insert(0) += u64::from(sources);
    }
    want
}

/// Rebuilds the stable output from `trace` and checks it against `want`.
pub fn check(trace: &[TraceEntry], want: &BTreeMap<u64, u64>) -> Verdict {
    // The rebuilt output: (id, kind, stime, arrival) in delivery order.
    let mut out: Vec<(u64, TupleKind, Time, Time)> = Vec::with_capacity(trace.len());
    let mut tentative_received = 0;
    let mut open_run = false;
    let mut unclosed_runs = 0;
    for e in trace {
        match e.kind {
            TupleKind::Insertion => out.push((e.id.0, e.kind, e.stime, e.arrival)),
            TupleKind::Tentative => {
                tentative_received += 1;
                open_run = true;
                out.push((e.id.0, e.kind, e.stime, e.arrival));
            }
            TupleKind::Undo => {
                // An UNDO retracts the delivered suffix after its target.
                if let Some(target) = e.undo_target {
                    while out.last().is_some_and(|x| x.0 > target.0) {
                        out.pop();
                    }
                }
            }
            TupleKind::RecDone => open_run = false,
            TupleKind::Boundary => {}
        }
    }
    if open_run {
        unclosed_runs += 1;
    }

    let mut got: BTreeMap<u64, u64> = BTreeMap::new();
    let mut id_violations = 0;
    let mut uncorrected_tentative = 0;
    let mut last_id = 0u64;
    let mut stable_latency_us = Vec::with_capacity(out.len());
    let mut stable_arrivals = Vec::with_capacity(out.len());
    for &(id, kind, stime, arrival) in &out {
        if kind == TupleKind::Tentative {
            uncorrected_tentative += 1;
            continue;
        }
        if id <= last_id {
            id_violations += 1;
        }
        last_id = last_id.max(id);
        *got.entry(stime.0).or_insert(0) += 1;
        stable_latency_us.push(arrival.0.saturating_sub(stime.0));
        stable_arrivals.push(arrival);
    }

    let (mut missing, mut extra) = (0, 0);
    let mut missing_span: Option<(Time, Time)> = None;
    for (stime, &n) in want {
        let g = got.get(stime).copied().unwrap_or(0);
        if g < n {
            let at = Time(*stime);
            missing_span = Some(missing_span.map_or((at, at), |(first, _)| (first, at)));
        }
        missing += n.saturating_sub(g);
        extra += g.saturating_sub(n);
    }
    for (stime, &g) in &got {
        if !want.contains_key(stime) {
            extra += g;
        }
    }
    Verdict {
        offered: want.values().sum(),
        stable: stable_arrivals.len() as u64,
        missing,
        missing_span,
        extra,
        id_violations,
        uncorrected_tentative,
        unclosed_runs,
        tentative_received,
        stable_latency_us,
        stable_arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::TupleId;

    fn entry(kind: TupleKind, id: u64, stime: u64, arrival: u64) -> TraceEntry {
        TraceEntry {
            arrival: Time(arrival),
            kind,
            id: TupleId(id),
            stime: Time(stime),
            undo_target: None,
        }
    }

    fn undo(target: u64, arrival: u64) -> TraceEntry {
        TraceEntry {
            undo_target: Some(TupleId(target)),
            ..entry(TupleKind::Undo, 0, 0, arrival)
        }
    }

    /// One source, rate 1000/s: stimes 1000, 2000, 3000 µs.
    fn want3() -> BTreeMap<u64, u64> {
        expected_stimes(1, 3, 1000.0)
    }

    #[test]
    fn exact_output_passes() {
        let t = [
            entry(TupleKind::Insertion, 1, 1000, 1500),
            entry(TupleKind::Boundary, 0, 1000, 1500),
            entry(TupleKind::Insertion, 2, 2000, 2600),
            entry(TupleKind::Insertion, 3, 3000, 3700),
        ];
        let v = check(&t, &want3());
        assert!(v.correct());
        assert_eq!((v.offered, v.stable, v.failed()), (3, 3, 0));
        assert_eq!(v.stable_latency_us, vec![500, 600, 700]);
    }

    #[test]
    fn three_sources_share_stimes() {
        let want = expected_stimes(3, 2, 1000.0);
        assert_eq!(want.get(&1000), Some(&3));
        assert_eq!(want.values().sum::<u64>(), 6);
        assert_eq!(stime_of(3, 3000.0), Time(1000));
    }

    #[test]
    fn undo_retracts_tentative_and_corrections_count_once() {
        let t = [
            entry(TupleKind::Insertion, 1, 1000, 1100),
            entry(TupleKind::Tentative, 2, 2000, 2100),
            entry(TupleKind::Tentative, 3, 3000, 3100),
            undo(1, 4000),
            entry(TupleKind::Insertion, 2, 2000, 4100),
            entry(TupleKind::Insertion, 3, 3000, 4100),
            entry(TupleKind::RecDone, 4, 3000, 4200),
        ];
        let v = check(&t, &want3());
        assert!(v.correct(), "{v:?}");
        assert_eq!(v.failed(), 0);
        assert_eq!(v.tentative_received, 2);
        // Latency is taken at the stable correction.
        assert_eq!(v.stable_latency_us, vec![100, 2100, 1100]);
    }

    #[test]
    fn missing_duplicate_and_unclosed_runs_are_caught() {
        // Tuple 3 never stabilizes: a failure, not wrong output.
        let t = [
            entry(TupleKind::Insertion, 1, 1000, 1100),
            entry(TupleKind::Insertion, 2, 2000, 2100),
        ];
        let v = check(&t, &want3());
        assert!(v.correct());
        assert_eq!((v.missing, v.extra), (1, 0));
        assert_eq!(v.missing_span, Some((Time(3000), Time(3000))));

        // A duplicate stable delivery: an extra tuple and an id violation.
        let t = [
            entry(TupleKind::Insertion, 1, 1000, 1100),
            entry(TupleKind::Insertion, 2, 2000, 2100),
            entry(TupleKind::Insertion, 2, 2000, 2200),
            entry(TupleKind::Insertion, 3, 3000, 3100),
        ];
        let v = check(&t, &want3());
        assert!(!v.correct());
        assert_eq!((v.missing, v.extra, v.id_violations), (0, 1, 1));

        // Tentative data never undone, and no REC_DONE: the tuple never
        // stabilized, a failure.
        let t = [
            entry(TupleKind::Insertion, 1, 1000, 1100),
            entry(TupleKind::Insertion, 2, 2000, 2100),
            entry(TupleKind::Tentative, 3, 3000, 3100),
        ];
        let v = check(&t, &want3());
        assert!(v.correct());
        assert_eq!((v.uncorrected_tentative, v.unclosed_runs), (1, 1));
        assert_eq!(v.failed(), 1);

        // A tuple the sources never produced.
        let t = [entry(TupleKind::Insertion, 1, 1234, 1300)];
        let v = check(&t, &want3());
        assert_eq!((v.missing, v.extra), (3, 1));
        assert_eq!(v.missing_span, Some((Time(1000), Time(3000))));
    }
}
