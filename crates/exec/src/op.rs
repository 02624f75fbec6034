//! The operator interface (thesis §6.1.5) and the predicate filter.

use crate::expr::Expr;
use harbor_common::{DbResult, Tuple};

/// The standard iterator interface every operator exports (§6.1.5).
pub trait Operator: Send {
    fn open(&mut self) -> DbResult<()>;
    fn next(&mut self) -> DbResult<Option<Tuple>>;
    fn close(&mut self);

    /// Appends roughly `max` more tuples to `out`, returning `false` once
    /// the stream is exhausted (a final partial batch may still have been
    /// appended). `max` is a batching *hint*: sources with a native batch
    /// path (e.g. `SeqScan`) work at page granularity and may overshoot by
    /// up to a page. The default implementation shims over `next()`, so
    /// every operator is batch-drivable.
    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> DbResult<bool> {
        for _ in 0..max {
            match self.next()? {
                Some(t) => out.push(t),
                None => return Ok(false),
            }
        }
        Ok(true)
    }
}

/// Drains an operator into a vector (open → next_batch* → close). Runs the
/// batched path so sources that implement it skip tuple-at-a-time overhead.
pub fn collect(op: &mut dyn Operator) -> DbResult<Vec<Tuple>> {
    op.open()?;
    let mut out = Vec::new();
    while op.next_batch(harbor_common::config::SCAN_BATCH, &mut out)? {}
    op.close();
    Ok(out)
}

/// Predicate filter.
pub struct Filter {
    input: Box<dyn Operator>,
    pred: Expr,
}

impl Filter {
    pub fn new(input: Box<dyn Operator>, pred: Expr) -> Self {
        Filter { input, pred }
    }
}

impl Operator for Filter {
    fn open(&mut self) -> DbResult<()> {
        self.input.open()
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            if self.pred.eval_bool(&t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::Value;

    /// A source over a vector of tuples.
    struct Rows(std::vec::IntoIter<Tuple>);

    impl Operator for Rows {
        fn open(&mut self) -> DbResult<()> {
            Ok(())
        }

        fn next(&mut self) -> DbResult<Option<Tuple>> {
            Ok(self.0.next())
        }

        fn close(&mut self) {}
    }

    #[test]
    fn filter_keeps_the_rows_its_predicate_admits() {
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int32((i * 10) as i32)]))
            .collect();
        let src = Rows(rows.into_iter());
        let mut filtered = Filter::new(Box::new(src), Expr::col(0).ge(Expr::lit(5i64)));
        let out = collect(&mut filtered).unwrap();
        let seen: Vec<Value> = out.iter().map(|t| t.get(1)).collect();
        assert_eq!(
            seen,
            (5..10).map(|i| Value::Int32(i * 10)).collect::<Vec<_>>()
        );
    }
}
