//! Nested-loops join (thesis §6.1.5).

use crate::expr::Expr;
use crate::op::Operator;
use harbor_common::{DbResult, Tuple, TupleDesc};

/// Tuple-at-a-time nested loops join: for each outer tuple, rewinds the
/// inner input and emits concatenations satisfying the join predicate. The
/// predicate sees the concatenated tuple (outer columns first).
pub struct NestedLoopsJoin {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    pred: Expr,
    desc: TupleDesc,
    current_outer: Option<Tuple>,
}

impl NestedLoopsJoin {
    pub fn new(outer: Box<dyn Operator>, inner: Box<dyn Operator>, pred: Expr) -> Self {
        let desc = outer.tuple_desc().concat(&inner.tuple_desc());
        NestedLoopsJoin {
            outer,
            inner,
            pred,
            desc,
            current_outer: None,
        }
    }
}

impl Operator for NestedLoopsJoin {
    fn open(&mut self) -> DbResult<()> {
        self.outer.open()?;
        self.inner.open()?;
        self.current_outer = None;
        Ok(())
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        loop {
            let outer = match &mut self.current_outer {
                Some(t) => t,
                slot => match self.outer.next()? {
                    Some(t) => {
                        self.inner.rewind()?;
                        slot.insert(t)
                    }
                    None => return Ok(None),
                },
            };
            match self.inner.next()? {
                Some(inner) => {
                    let joined = Tuple::new([outer.values(), inner.into_values()].concat());
                    if self.pred.eval_bool(&joined)? {
                        return Ok(Some(joined));
                    }
                }
                None => self.current_outer = None,
            }
        }
    }

    fn rewind(&mut self) -> DbResult<()> {
        self.outer.rewind()?;
        self.inner.rewind()?;
        self.current_outer = None;
        Ok(())
    }

    fn close(&mut self) {
        self.outer.close();
        self.inner.close();
    }

    fn tuple_desc(&self) -> TupleDesc {
        self.desc.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, Values};
    use harbor_common::{FieldType, Value};

    fn table(name: &str, rows: Vec<(i64, i64)>) -> Values {
        let desc = TupleDesc::new(vec![
            (&format!("{name}_k") as &str, FieldType::Int64),
            (&format!("{name}_v") as &str, FieldType::Int64),
        ]);
        Values::new(
            desc,
            rows.into_iter()
                .map(|(k, v)| Tuple::new(vec![Value::Int64(k), Value::Int64(v)]))
                .collect(),
        )
    }

    #[test]
    fn equijoin_matches_pairs() {
        let left = table("l", vec![(1, 10), (2, 20), (3, 30)]);
        let right = table("r", vec![(2, 200), (3, 300), (3, 301), (4, 400)]);
        // Join on l_k == r_k: columns 0 and 2 of the concatenation.
        let mut join = NestedLoopsJoin::new(
            Box::new(left),
            Box::new(right),
            Expr::col(0).eq(Expr::col(2)),
        );
        let mut rows = collect(&mut join).unwrap();
        rows.sort_by_key(|t| (t.get(0).as_i64().unwrap(), t.get(3).as_i64().unwrap()));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(1), Value::Int64(20));
        assert_eq!(rows[0].get(3), Value::Int64(200));
        assert_eq!(rows[2].get(3), Value::Int64(301));
        assert_eq!(join.tuple_desc().len(), 4);
    }

    #[test]
    fn empty_inputs_produce_no_rows() {
        let left = table("l", vec![]);
        let right = table("r", vec![(1, 1)]);
        let mut join = NestedLoopsJoin::new(
            Box::new(left),
            Box::new(right),
            Expr::col(0).eq(Expr::col(2)),
        );
        assert!(collect(&mut join).unwrap().is_empty());
    }
}
