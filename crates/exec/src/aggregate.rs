//! Hash-based grouping and aggregation (thesis §6.1.5: "aggregations with
//! in-memory hash-based grouping").

use crate::expr::Expr;
use crate::op::Operator;
use harbor_common::{DbError, DbResult, FieldType, Tuple, TupleDesc, Value};
use std::collections::HashMap;

/// Aggregate functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// One aggregate: a function over an expression.
#[derive(Clone, Debug)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: Expr,
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: Expr, name: &str) -> Self {
        AggSpec {
            func,
            input,
            name: name.to_string(),
        }
    }
}

#[derive(Clone, Debug, Default)]
struct AggState {
    count: i64,
    sum: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn update(&mut self, v: &Value) -> DbResult<()> {
        self.count += 1;
        if let Ok(n) = v.as_i64() {
            self.sum = self.sum.wrapping_add(n);
        }
        match &self.min {
            Some(m) if m.total_cmp(v) != std::cmp::Ordering::Greater => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(v) != std::cmp::Ordering::Less => {}
            _ => self.max = Some(v.clone()),
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int64(self.count),
            AggFunc::Sum => Value::Int64(self.sum),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Int64(0)),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Int64(0)),
            AggFunc::Avg => Value::Int64(if self.count == 0 {
                0
            } else {
                self.sum / self.count
            }),
        }
    }
}

/// Hash aggregation over an input operator. Output rows are
/// `group-by keys ++ aggregates`, in unspecified group order.
pub struct HashAggregate {
    input: Box<dyn Operator>,
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    desc: TupleDesc,
    results: Vec<Tuple>,
    at: usize,
    materialized: bool,
}

impl HashAggregate {
    pub fn new(input: Box<dyn Operator>, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Self {
        let mut fields: Vec<(String, FieldType)> = Vec::new();
        for (i, _) in group_by.iter().enumerate() {
            fields.push((format!("g{i}"), FieldType::Int64));
        }
        for a in &aggs {
            fields.push((a.name.clone(), FieldType::Int64));
        }
        let desc = TupleDesc::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
        HashAggregate {
            input,
            group_by,
            aggs,
            desc,
            results: Vec::new(),
            at: 0,
            materialized: false,
        }
    }

    fn materialize(&mut self) -> DbResult<()> {
        self.input.open()?;
        // Group key -> (key values, per-agg state).
        let mut groups: HashMap<Vec<u8>, (Vec<Value>, Vec<AggState>)> = HashMap::new();
        while let Some(t) = self.input.next()? {
            let mut key_vals = Vec::with_capacity(self.group_by.len());
            let mut key_bytes = Vec::new();
            for g in &self.group_by {
                let v = g.eval(&t)?;
                key_bytes.extend_from_slice(format!("{v}\0").as_bytes());
                key_vals.push(v);
            }
            let entry = groups
                .entry(key_bytes)
                .or_insert_with(|| (key_vals, vec![AggState::default(); self.aggs.len()]));
            for (i, spec) in self.aggs.iter().enumerate() {
                let v = spec.input.eval(&t)?;
                entry.1[i].update(&v)?;
            }
        }
        self.input.close();
        // A global aggregate (no GROUP BY) over zero rows yields one row of
        // zero-valued aggregates, like SQL COUNT.
        if groups.is_empty() && self.group_by.is_empty() {
            groups.insert(
                Vec::new(),
                (Vec::new(), vec![AggState::default(); self.aggs.len()]),
            );
        }
        self.results = groups
            .into_values()
            .map(|(keys, states)| {
                let mut vals = keys;
                for (i, spec) in self.aggs.iter().enumerate() {
                    vals.push(states[i].finish(spec.func));
                }
                Tuple::new(vals)
            })
            .collect();
        self.at = 0;
        self.materialized = true;
        Ok(())
    }
}

impl Operator for HashAggregate {
    fn open(&mut self) -> DbResult<()> {
        if !self.materialized {
            self.materialize()?;
        }
        self.at = 0;
        Ok(())
    }

    fn next(&mut self) -> DbResult<Option<Tuple>> {
        if !self.materialized {
            return Err(DbError::internal("aggregate next() before open()"));
        }
        if self.at < self.results.len() {
            self.at += 1;
            Ok(Some(self.results[self.at - 1].clone()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, Values};

    fn src() -> Values {
        let desc = TupleDesc::new(vec![("g", FieldType::Int64), ("v", FieldType::Int64)]);
        let rows = vec![
            Tuple::new(vec![Value::Int64(1), Value::Int64(10)]),
            Tuple::new(vec![Value::Int64(1), Value::Int64(20)]),
            Tuple::new(vec![Value::Int64(2), Value::Int64(5)]),
        ];
        Values::new(desc, rows)
    }

    #[test]
    fn grouped_aggregates() {
        let mut agg = HashAggregate::new(
            Box::new(src()),
            vec![Expr::col(0)],
            vec![
                AggSpec::new(AggFunc::Count, Expr::col(1), "cnt"),
                AggSpec::new(AggFunc::Sum, Expr::col(1), "sum"),
                AggSpec::new(AggFunc::Min, Expr::col(1), "min"),
                AggSpec::new(AggFunc::Max, Expr::col(1), "max"),
                AggSpec::new(AggFunc::Avg, Expr::col(1), "avg"),
            ],
        );
        let mut rows = collect(&mut agg).unwrap();
        rows.sort_by_key(|t| t.get(0).as_i64().unwrap());
        assert_eq!(rows.len(), 2);
        let g1 = &rows[0];
        assert_eq!(g1.get(1), Value::Int64(2)); // count
        assert_eq!(g1.get(2), Value::Int64(30)); // sum
        assert_eq!(g1.get(3), Value::Int64(10)); // min
        assert_eq!(g1.get(4), Value::Int64(20)); // max
        assert_eq!(g1.get(5), Value::Int64(15)); // avg
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let desc = TupleDesc::new(vec![("v", FieldType::Int64)]);
        let empty = Values::new(desc, vec![]);
        let mut agg = HashAggregate::new(
            Box::new(empty),
            vec![],
            vec![AggSpec::new(AggFunc::Count, Expr::col(0), "cnt")],
        );
        let rows = collect(&mut agg).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), Value::Int64(0));
    }

    #[test]
    fn reopen_is_stable() {
        let mut agg = HashAggregate::new(
            Box::new(src()),
            vec![],
            vec![AggSpec::new(AggFunc::Sum, Expr::col(1), "sum")],
        );
        let a = collect(&mut agg).unwrap();
        let b = collect(&mut agg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].get(0), Value::Int64(35));
    }
}
