//! The operator interface (thesis §6.1.5) and the simple relational
//! operators: filter, projection, limit, and an in-memory values source.

use crate::expr::Expr;
use harbor_common::{DbResult, Tuple, TupleDesc};

/// The standard iterator interface every operator exports (§6.1.5).
pub trait Operator: Send {
    fn open(&mut self) -> DbResult<()>;
    fn next(&mut self) -> DbResult<Option<Tuple>>;
    fn rewind(&mut self) -> DbResult<()>;
    fn close(&mut self);
    /// Relational schema of the operator's output tuples.
    fn tuple_desc(&self) -> TupleDesc;

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

/// A source over a materialized vector of tuples (test fixture and the
/// receiving end of network scans).
pub struct Values {
    desc: TupleDesc,
    rows: Vec<Tuple>,
    at: usize,
}

impl Values {
    pub fn new(desc: TupleDesc, rows: Vec<Tuple>) -> Self {
        Values { desc, rows, at: 0 }
    }
}

impl Operator for Values {
    fn open(&mut self) -> DbResult<()> {
        self.at = 0;
        Ok(())
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        if self.at < self.rows.len() {
            self.at += 1;
            Ok(Some(self.rows[self.at - 1].clone()))
        } else {
            Ok(None)
        }
    }

    fn rewind(&mut self) -> DbResult<()> {
        self.at = 0;
        Ok(())
    }

    fn close(&mut self) {}

    fn tuple_desc(&self) -> TupleDesc {
        self.desc.clone()
    }
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

    fn rewind(&mut self) -> DbResult<()> {
        self.input.rewind()
    }

    fn close(&mut self) {
        self.input.close()
    }

    fn tuple_desc(&self) -> TupleDesc {
        self.input.tuple_desc()
    }
}

/// Column projection (by input column indices).
pub struct Project {
    input: Box<dyn Operator>,
    cols: Vec<usize>,
    desc: TupleDesc,
}

impl Project {
    pub fn new(input: Box<dyn Operator>, cols: Vec<usize>) -> Self {
        let desc = input.tuple_desc().project(&cols);
        Project { input, cols, desc }
    }
}

impl Operator for Project {
    fn open(&mut self) -> DbResult<()> {
        self.input.open()
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        self.input
            .next()?
            .map(|t| t.project(&self.cols))
            .transpose()
    }

    fn rewind(&mut self) -> DbResult<()> {
        self.input.rewind()
    }

    fn close(&mut self) {
        self.input.close()
    }

    fn tuple_desc(&self) -> TupleDesc {
        self.desc.clone()
    }
}

/// LIMIT n.
pub struct Limit {
    input: Box<dyn Operator>,
    limit: usize,
    seen: usize,
}

impl Limit {
    pub fn new(input: Box<dyn Operator>, limit: usize) -> Self {
        Limit {
            input,
            limit,
            seen: 0,
        }
    }
}

impl Operator for Limit {
    fn open(&mut self) -> DbResult<()> {
        self.seen = 0;
        self.input.open()
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        if self.seen >= self.limit {
            return Ok(None);
        }
        match self.input.next()? {
            Some(t) => {
                self.seen += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn rewind(&mut self) -> DbResult<()> {
        self.seen = 0;
        self.input.rewind()
    }

    fn close(&mut self) {
        self.input.close()
    }

    fn tuple_desc(&self) -> TupleDesc {
        self.input.tuple_desc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::{FieldType, Value};

    fn desc() -> TupleDesc {
        TupleDesc::new(vec![("a", FieldType::Int64), ("b", FieldType::Int32)])
    }

    fn rows() -> Vec<Tuple> {
        (0..10)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int32((i * 10) as i32)]))
            .collect()
    }

    #[test]
    fn filter_project_limit_pipeline() {
        let src = Values::new(desc(), rows());
        let filtered = Filter::new(Box::new(src), Expr::col(0).ge(Expr::lit(5i64)));
        let projected = Project::new(Box::new(filtered), vec![1]);
        let mut limited = Limit::new(Box::new(projected), 3);
        let out = collect(&mut limited).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get(0), Value::Int32(50));
        assert_eq!(limited.tuple_desc().len(), 1);
        assert_eq!(limited.tuple_desc().field_name(0), "b");
    }

    #[test]
    fn rewind_restarts_the_stream() {
        let mut src = Values::new(desc(), rows());
        src.open().unwrap();
        assert!(src.next().unwrap().is_some());
        src.rewind().unwrap();
        let mut n = 0;
        while src.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }
}
