//! Map: transforms each input tuple into a single output tuple (§2.1).
//!
//! Map is one of the two hops of a fragment pass that copy tuples (the
//! input SUnion's renumbering is the other): every data tuple becomes a
//! fresh output row, built once from the input's header and the evaluated
//! expressions. Rows of up to two attributes live inline in the [`Tuple`],
//! so a batch costs one allocation (the output batch), not one per tuple.

use crate::{BatchEmitter, OpSnapshot, Operator};
use borealis_types::{Expr, Time, Tuple, TupleBatch, TupleKind, Values};

/// A stateless projection/transformation.
///
/// Each output attribute is an expression over the input tuple. Ids, stime,
/// and kind pass through unchanged so that downstream duplicate suppression
/// and serialization behave identically before and after a Map.
pub struct Map {
    outputs: Vec<Expr>,
}

impl Map {
    /// Builds a map producing one attribute per expression.
    pub fn new(outputs: Vec<Expr>) -> Map {
        Map { outputs }
    }

    /// The output row for one data tuple, built once (rows of up to two
    /// attributes allocate nothing); `None` if an expression fails.
    fn apply(&self, tuple: &Tuple) -> Option<Tuple> {
        let values =
            Values::try_from_fn(self.outputs.len(), |i| self.outputs[i].eval(tuple)).ok()?;
        Some(Tuple {
            kind: tuple.kind,
            id: tuple.id,
            stime: tuple.stime,
            origin: tuple.origin,
            values,
        })
    }
}

impl Operator for Map {
    fn name(&self) -> &'static str {
        "map"
    }

    fn process(&mut self, _port: usize, tuple: &Tuple, _now: Time, out: &mut BatchEmitter) {
        match tuple.kind {
            TupleKind::Insertion | TupleKind::Tentative => {
                // Deterministic drop on evaluation error, as Filter.
                if let Some(t) = self.apply(tuple) {
                    out.push(t);
                }
            }
            TupleKind::Boundary | TupleKind::Undo | TupleKind::RecDone => {
                out.push(tuple.clone());
            }
        }
    }

    /// Batch path: the transformation must materialize fresh tuples, but
    /// it builds the output batch exactly once (right capacity, one sealed
    /// chunk) — every downstream consumer then shares that allocation.
    fn process_batch(
        &mut self,
        _port: usize,
        batch: &TupleBatch,
        _now: Time,
        out: &mut BatchEmitter,
    ) {
        let mut result: Vec<Tuple> = Vec::with_capacity(batch.len());
        for tuple in batch.as_slice() {
            match tuple.kind {
                TupleKind::Insertion | TupleKind::Tentative => {
                    result.extend(self.apply(tuple));
                }
                TupleKind::Boundary | TupleKind::Undo | TupleKind::RecDone => {
                    result.push(tuple.clone());
                }
            }
        }
        out.push_batch(TupleBatch::from_vec(result));
    }

    fn checkpoint(&self) -> OpSnapshot {
        OpSnapshot::new(())
    }

    fn restore(&mut self, _snap: &OpSnapshot) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{TupleId, Value};

    #[test]
    fn transforms_values_and_keeps_identity() {
        let mut m = Map::new(vec![
            Expr::add(Expr::field(0), Expr::int(100)),
            Expr::field(1),
        ]);
        let t = Tuple::insertion(
            TupleId(7),
            Time::from_millis(3),
            vec![Value::Int(1), Value::str("k")],
        );
        let mut out = BatchEmitter::new();
        m.process(0, &t, Time::ZERO, &mut out);
        let r = &out.tuples()[0];
        assert_eq!(r.values, vec![Value::Int(101), Value::str("k")]);
        assert_eq!(r.id, TupleId(7));
        assert_eq!(r.stime, Time::from_millis(3));
    }

    #[test]
    fn tentative_stays_tentative() {
        let mut m = Map::new(vec![Expr::field(0)]);
        let t = Tuple::tentative(TupleId(1), Time::ZERO, vec![Value::Int(2)]);
        let mut out = BatchEmitter::new();
        m.process(0, &t, Time::ZERO, &mut out);
        assert_eq!(out.tuples()[0].kind, TupleKind::Tentative);
    }

    #[test]
    fn boundary_passes_untouched() {
        let mut m = Map::new(vec![Expr::field(0)]);
        let b = Tuple::boundary(TupleId::NONE, Time::from_secs(2));
        let mut out = BatchEmitter::new();
        m.process(0, &b, Time::ZERO, &mut out);
        assert_eq!(out.tuples()[0], b);
    }

    #[test]
    fn batch_path_matches_per_tuple_path() {
        let exprs = || vec![Expr::add(Expr::field(0), Expr::int(1))];
        let tuples = vec![
            Tuple::insertion(TupleId(1), Time::ZERO, vec![Value::Int(10)]),
            Tuple::boundary(TupleId::NONE, Time::from_secs(1)),
            Tuple::tentative(TupleId(2), Time::from_secs(1), vec![Value::Int(20)]),
            // Evaluation error (missing field): dropped on both paths.
            Tuple::insertion(TupleId(3), Time::from_secs(2), vec![]),
        ];
        let mut batch_out = BatchEmitter::new();
        Map::new(exprs()).process_batch(
            0,
            &TupleBatch::from_vec(tuples.clone()),
            Time::ZERO,
            &mut batch_out,
        );
        let (chunks, _) = batch_out.take();
        let got: Vec<Tuple> = chunks.iter().flat_map(|c| c.to_vec()).collect();

        let mut reference = BatchEmitter::new();
        let mut m = Map::new(exprs());
        for t in &tuples {
            m.process(0, t, Time::ZERO, &mut reference);
        }
        assert_eq!(got, reference.tuples());
        assert_eq!(chunks.len(), 1, "one sealed output batch");
    }
}
