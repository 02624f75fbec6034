//! A small expression language for predicates.
//!
//! Query plans are built programmatically (the thesis implementation has no
//! SQL frontend either: "query plans must be manually constructed", §6.1.5);
//! expressions give those plans their WHERE clauses, including the timestamp
//! range predicates of the recovery queries.
//!
//! There is one evaluator, [`Expr::eval`], over anything that can read a
//! column ([`Columns`]): a decoded [`Tuple`], or a row still in its page
//! slot ([`ScanRow`](crate::ScanRow)), which is how the scan service tests
//! a predicate before it transcodes anything.

use harbor_common::{wire_enum, DbResult, Timestamp, Tuple, Value};
use std::cmp::Ordering;
use std::fmt;

/// How an expression reads the row it is evaluated on.
pub trait Columns {
    /// Column `i`, or [`DbError::Schema`](harbor_common::DbError::Schema)
    /// if the row has none.
    fn column(&self, i: usize) -> DbResult<Value>;
}

impl Columns for Tuple {
    #[inline]
    fn column(&self, i: usize) -> DbResult<Value> {
        self.try_get(i)
    }
}

wire_enum! {
    /// Comparison operators.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum CmpOp {
        0 => Eq,
        1 => Ne,
        2 => Lt,
        3 => Le,
        4 => Gt,
        5 => Ge,
    }
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

wire_enum! {
    /// Arithmetic operators (integer semantics, wrapping on overflow).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum ArithOp {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Div,
        4 => Mod,
    }
}

wire_enum! {
    /// An expression tree over one tuple.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Expr {
        /// Column reference by index into the input tuple.
        0 => Col(usize),
        /// Literal value.
        1 => Lit(Value),
        2 => Cmp(CmpOp, Box<Expr>, Box<Expr>),
        3 => Arith(ArithOp, Box<Expr>, Box<Expr>),
        4 => And(Box<Expr>, Box<Expr>),
        5 => Or(Box<Expr>, Box<Expr>),
        6 => Not(Box<Expr>),
    }
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn time(t: Timestamp) -> Expr {
        Expr::Lit(Value::Time(t))
    }

    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// Evaluates against `row`. A column the row does not have is
    /// [`DbError::Schema`](harbor_common::DbError::Schema): an expression
    /// may have come off the wire.
    pub fn eval<R: Columns>(&self, row: &R) -> DbResult<Value> {
        match self {
            Expr::Col(i) => row.column(*i),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let a = a.eval(row)?;
                let b = b.eval(row)?;
                Ok(Value::Int32(op.test(a.total_cmp(&b)) as i32))
            }
            Expr::Arith(op, a, b) => {
                let a = a.eval(row)?.as_i64()?;
                let b = b.eval(row)?.as_i64()?;
                let v = match op {
                    ArithOp::Add => a.wrapping_add(b),
                    ArithOp::Sub => a.wrapping_sub(b),
                    ArithOp::Mul => a.wrapping_mul(b),
                    ArithOp::Div => {
                        if b == 0 {
                            return Err(harbor_common::DbError::Schema("division by zero".into()));
                        }
                        a.wrapping_div(b)
                    }
                    ArithOp::Mod => {
                        if b == 0 {
                            return Err(harbor_common::DbError::Schema("modulo by zero".into()));
                        }
                        a.wrapping_rem(b)
                    }
                };
                Ok(Value::Int64(v))
            }
            Expr::And(a, b) => Ok(Value::Int32(
                (a.eval_bool(row)? && b.eval_bool(row)?) as i32,
            )),
            Expr::Or(a, b) => Ok(Value::Int32(
                (a.eval_bool(row)? || b.eval_bool(row)?) as i32,
            )),
            Expr::Not(a) => Ok(Value::Int32(!a.eval_bool(row)? as i32)),
        }
    }

    /// Evaluates as a predicate.
    pub fn eval_bool<R: Columns>(&self, row: &R) -> DbResult<bool> {
        Ok(self.eval(row)?.as_i64()? != 0)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup() -> Tuple {
        Tuple::new(vec![
            Value::Time(Timestamp(5)),
            Value::Time(Timestamp::ZERO),
            Value::Int64(42),
            Value::Int32(7),
        ])
    }

    #[test]
    fn comparisons() {
        let t = tup();
        assert!(Expr::col(2).eq(Expr::lit(42i64)).eval_bool(&t).unwrap());
        assert!(Expr::col(3).lt(Expr::lit(8)).eval_bool(&t).unwrap());
        assert!(!Expr::col(3).gt(Expr::lit(8)).eval_bool(&t).unwrap());
        assert!(Expr::col(0)
            .le(Expr::time(Timestamp(5)))
            .eval_bool(&t)
            .unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let t = tup();
        let e = Expr::col(2)
            .eq(Expr::lit(42i64))
            .and(Expr::col(3).eq(Expr::lit(7)));
        assert!(e.eval_bool(&t).unwrap());
        let e = Expr::col(2)
            .eq(Expr::lit(0i64))
            .or(Expr::col(3).eq(Expr::lit(7)));
        assert!(e.eval_bool(&t).unwrap());
        assert!(!Expr::col(3).eq(Expr::lit(7)).not().eval_bool(&t).unwrap());
    }

    #[test]
    fn arithmetic() {
        let t = tup();
        let e = Expr::col(2).add(Expr::lit(8i64));
        assert_eq!(e.eval(&t).unwrap(), Value::Int64(50));
        let arith = |op, a, b| Expr::Arith(op, Box::new(a), Box::new(b));
        let e = arith(ArithOp::Mul, Expr::col(3), Expr::lit(6));
        assert_eq!(e.eval(&t).unwrap(), Value::Int64(42));
        let e = arith(ArithOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert!(e.eval(&t).is_err());
    }

    #[test]
    fn mixed_width_comparison_works() {
        let t = tup();
        // Int32 column compared with Int64 literal.
        assert!(Expr::col(3).eq(Expr::lit(7i64)).eval_bool(&t).unwrap());
    }
}
