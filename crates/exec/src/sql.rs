//! A small SQL frontend — an *extension* over the thesis, whose
//! implementation had none ("query plans must be manually constructed",
//! §6.1.5). Covers the dialect the recovery queries and the examples are
//! written in:
//!
//! ```sql
//! SELECT * FROM t WHERE id >= 10 AS OF 42 LIMIT 5
//! SELECT region, SUM(units * price), COUNT(id) FROM orders GROUP BY region
//! INSERT INTO t VALUES (1, 10), (2, 20)
//! DELETE FROM t WHERE v < 3
//! UPDATE t SET v = 9 WHERE id = 7
//! ```
//!
//! * `AS OF <n>` runs the select as a historical query at logical time `n`
//!   (lock-free time travel); without it, reads run as of "now" at this
//!   site (`local_now() - 1`).
//! * Column names resolve against the stored schema; the reserved
//!   timestamp columns are addressable as `insertion_time` and
//!   `deletion_time`.
//! * Statements execute against one engine; DML requires a transaction id.

use crate::aggregate::{AggFunc, AggSpec, HashAggregate};
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::op::{Filter, Limit, Operator, Project, Values};
use crate::scan::{index_lookup, ReadMode, SeqScan};
use crate::{run_delete, run_update};
use harbor_common::{DbError, DbResult, FieldType, TransactionId, Tuple, TupleDesc, Value};
use harbor_engine::Engine;

// ----------------------------------------------------------------------
// Lexer
// ----------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Sym(&'static str),
    End,
}

fn lex(input: &str) -> DbResult<Vec<Tok>> {
    let b = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' | '+' | '-' | '/' | '%' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    _ => "%",
                }));
                i += 1;
            }
            '=' => {
                out.push(Tok::Sym("="));
                i += 1;
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Sym("<="));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Sym("<>"));
                    i += 2;
                } else {
                    out.push(Tok::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Sym(">="));
                    i += 2;
                } else {
                    out.push(Tok::Sym(">"));
                    i += 1;
                }
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Sym("<>"));
                    i += 2;
                } else {
                    return Err(DbError::Schema("unexpected '!'".into()));
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(DbError::Schema("unterminated string literal".into()));
                }
                out.push(Tok::Str(input[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = input[start..i]
                    .parse()
                    .map_err(|_| DbError::Schema("bad integer literal".into()))?;
                out.push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(input[start..i].to_ascii_lowercase()));
            }
            other => return Err(DbError::Schema(format!("unexpected character {other:?}"))),
        }
    }
    out.push(Tok::End);
    Ok(out)
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

struct Parser<'a> {
    toks: Vec<Tok>,
    at: usize,
    desc: Option<&'a TupleDesc>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.at]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.at].clone();
        if self.at < self.toks.len() - 1 {
            self.at += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Schema(format!(
                "expected {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(s) if *s == sym) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> DbResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(DbError::Schema(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            t => Err(DbError::Schema(format!("expected identifier, found {t:?}"))),
        }
    }

    /// Resolves a column name against the bound schema.
    fn column(&self, name: &str) -> DbResult<usize> {
        let desc = self
            .desc
            .ok_or_else(|| DbError::Schema("no schema bound".into()))?;
        match name {
            "insertion_time" => Ok(harbor_common::schema::COL_INSERTION_TS),
            "deletion_time" => Ok(harbor_common::schema::COL_DELETION_TS),
            _ => desc.index_of(name),
        }
    }

    // expr := or_expr
    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            e = e.or(self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and") {
            e = e.and(self.not_expr()?);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("not") {
            Ok(self.not_expr()?.not())
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> DbResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Sym("=") => CmpOp::Eq,
            Tok::Sym("<>") => CmpOp::Ne,
            Tok::Sym("<") => CmpOp::Lt,
            Tok::Sym("<=") => CmpOp::Le,
            Tok::Sym(">") => CmpOp::Gt,
            Tok::Sym(">=") => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.add_expr()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> DbResult<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("+") => ArithOp::Add,
                Tok::Sym("-") => ArithOp::Sub,
                _ => return Ok(e),
            };
            self.next();
            e = Expr::Arith(op, Box::new(e), Box::new(self.mul_expr()?));
        }
    }

    fn mul_expr(&mut self) -> DbResult<Expr> {
        let mut e = self.primary()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("*") => ArithOp::Mul,
                Tok::Sym("/") => ArithOp::Div,
                Tok::Sym("%") => ArithOp::Mod,
                _ => return Ok(e),
            };
            self.next();
            e = Expr::Arith(op, Box::new(e), Box::new(self.primary()?));
        }
    }

    fn primary(&mut self) -> DbResult<Expr> {
        match self.next() {
            Tok::Int(n) => Ok(Expr::lit(n)),
            Tok::Str(s) => Ok(Expr::lit(s.as_str())),
            Tok::Sym("(") => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Sym("-") => Ok(Expr::Arith(
                ArithOp::Sub,
                Box::new(Expr::lit(0i64)),
                Box::new(self.primary()?),
            )),
            Tok::Ident(name) => Ok(Expr::col(self.column(&name)?)),
            t => Err(DbError::Schema(format!("unexpected token {t:?}"))),
        }
    }

    /// Parses a literal value (INSERT VALUES / UPDATE SET rhs).
    fn literal(&mut self) -> DbResult<Value> {
        match self.next() {
            Tok::Int(n) => Ok(Value::Int64(n)),
            Tok::Str(s) => Ok(Value::Str(s)),
            Tok::Sym("-") => match self.next() {
                Tok::Int(n) => Ok(Value::Int64(-n)),
                t => Err(DbError::Schema(format!(
                    "expected number after '-', found {t:?}"
                ))),
            },
            t => Err(DbError::Schema(format!("expected literal, found {t:?}"))),
        }
    }
}

/// One select-list item.
enum SelectItem {
    Star,
    Col(usize),
    Agg(AggSpec),
}

fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        _ => return None,
    })
}

// ----------------------------------------------------------------------
// Index access selection
// ----------------------------------------------------------------------

/// Widest key range the planner will expand into individual index probes.
/// The key index holds keys as runs and hashed buckets (`KeyIndex`) and has
/// no range lookup: a range read costs one probe per key — a run search or
/// a hash lookup, then a page access for each version found. Past this span
/// the plan is a sequential scan, which examines every stored row.
const INDEX_PROBE_CAP: i64 = 256;

/// If `pred` restricts the key column (stored column `key_col`) to an
/// equality or a tight range, returns the concrete keys to probe.
///
/// Only conjuncts reachable through `AND` count: a key constraint nested
/// under `OR`/`NOT` does not restrict the result set on its own. The full
/// predicate is always re-applied as a residual filter, so the probe set
/// only needs to be a *superset* of the qualifying keys — contradictory
/// bounds simply yield an empty probe set.
pub fn key_probes(pred: &Expr, key_col: usize) -> Option<Vec<i64>> {
    fn gather(
        e: &Expr,
        key_col: usize,
        eq: &mut Option<i64>,
        lo: &mut Option<i64>,
        hi: &mut Option<i64>,
    ) {
        match e {
            Expr::And(a, b) => {
                gather(a, key_col, eq, lo, hi);
                gather(b, key_col, eq, lo, hi);
            }
            Expr::Cmp(op, a, b) => {
                let (op, n) = match (&**a, &**b) {
                    (Expr::Col(c), Expr::Lit(Value::Int64(n))) if *c == key_col => (*op, *n),
                    (Expr::Lit(Value::Int64(n)), Expr::Col(c)) if *c == key_col => {
                        // Flip `lit OP col` into `col OP' lit`.
                        let flipped = match op {
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::Le => CmpOp::Ge,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::Ge => CmpOp::Le,
                            other => *other,
                        };
                        (flipped, *n)
                    }
                    _ => return,
                };
                match op {
                    CmpOp::Eq => *eq = Some(n),
                    CmpOp::Ge => *lo = Some(lo.map_or(n, |l: i64| l.max(n))),
                    CmpOp::Gt => {
                        if let Some(n) = n.checked_add(1) {
                            *lo = Some(lo.map_or(n, |l: i64| l.max(n)));
                        }
                    }
                    CmpOp::Le => *hi = Some(hi.map_or(n, |h: i64| h.min(n))),
                    CmpOp::Lt => {
                        if let Some(n) = n.checked_sub(1) {
                            *hi = Some(hi.map_or(n, |h: i64| h.min(n)));
                        }
                    }
                    CmpOp::Ne => {}
                }
            }
            _ => {}
        }
    }
    let (mut eq, mut lo, mut hi) = (None, None, None);
    gather(pred, key_col, &mut eq, &mut lo, &mut hi);
    if let Some(k) = eq {
        return Some(vec![k]);
    }
    let (lo, hi) = (lo?, hi?);
    if hi < lo {
        return Some(Vec::new());
    }
    if hi.checked_sub(lo)? >= INDEX_PROBE_CAP {
        return None;
    }
    Some((lo..=hi).collect())
}

/// Builds the plan source: an index probe set when the predicate pins the
/// key column (§5.3's tuple-id index), a sequential scan otherwise.
fn plan_source(
    engine: &Engine,
    def: &harbor_engine::TableDef,
    desc: &TupleDesc,
    predicate: Option<&Expr>,
    mode: ReadMode,
) -> DbResult<Box<dyn Operator>> {
    let key_col = harbor_common::schema::NUM_VERSION_COLS;
    let keyed = desc.len() > key_col && desc.field_type(key_col) == FieldType::Int64;
    if keyed {
        if let Some(probes) = predicate.and_then(|p| key_probes(p, key_col)) {
            let mut rows = Vec::new();
            for key in probes {
                rows.extend(
                    index_lookup(engine, def.id, key, mode)?
                        .into_iter()
                        .map(|(_, t)| t),
                );
            }
            return Ok(Box::new(Values::new(desc.clone(), rows)));
        }
    }
    Ok(Box::new(SeqScan::new(engine.pool().clone(), def.id, mode)?))
}

// ----------------------------------------------------------------------
// Statement execution
// ----------------------------------------------------------------------

/// Runs a read-only `SELECT`, returning its rows. `AS OF <n>` picks the
/// snapshot; otherwise the site's latest applied time is used.
pub fn query(engine: &Engine, sql: &str) -> DbResult<Vec<Tuple>> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        at: 0,
        desc: None,
    };
    p.expect_kw("select")?;
    // Scan the select list tokens first without a schema: we need the table
    // name to bind columns, so parse in two passes — remember position.
    let select_start = p.at;
    // Skip forward to FROM.
    let mut depth = 0;
    loop {
        match p.peek() {
            Tok::Sym("(") => depth += 1,
            Tok::Sym(")") => depth -= 1,
            Tok::Ident(s) if s == "from" && depth == 0 => break,
            Tok::End => return Err(DbError::Schema("missing FROM".into())),
            _ => {}
        }
        p.next();
    }
    p.expect_kw("from")?;
    let table_name = p.ident()?;
    let def = engine
        .table_def(&table_name)
        .ok_or_else(|| DbError::Schema(format!("no table {table_name:?}")))?;
    let desc = def.stored_desc();
    let tail_start = p.at;
    // Re-parse the select list with the schema bound.
    p.at = select_start;
    p.desc = Some(&desc);
    let mut items = Vec::new();
    loop {
        if p.eat_sym("*") {
            items.push(SelectItem::Star);
        } else if let Tok::Ident(name) = p.peek().clone() {
            if let Some(func) = agg_func(&name) {
                // Aggregate call?
                let save = p.at;
                p.next();
                if p.eat_sym("(") {
                    let inner = if func == AggFunc::Count && p.eat_sym("*") {
                        Expr::lit(1i64)
                    } else {
                        p.expr()?
                    };
                    p.expect_sym(")")?;
                    items.push(SelectItem::Agg(AggSpec::new(func, inner, &name)));
                } else {
                    p.at = save;
                    let col = p.column(&name)?;
                    p.next();
                    items.push(SelectItem::Col(col));
                }
            } else {
                let col = p.column(&name)?;
                p.next();
                items.push(SelectItem::Col(col));
            }
        } else {
            return Err(DbError::Schema(format!(
                "bad select item at {:?}",
                p.peek()
            )));
        }
        if !p.eat_sym(",") {
            break;
        }
    }
    // Jump to the tail (after FROM table).
    p.at = tail_start;
    let mut predicate = None;
    let mut group_by: Vec<Expr> = Vec::new();
    let mut as_of = None;
    let mut limit = None;
    loop {
        if p.eat_kw("where") {
            predicate = Some(p.expr()?);
        } else if p.eat_kw("group") {
            p.expect_kw("by")?;
            loop {
                group_by.push(p.expr()?);
                if !p.eat_sym(",") {
                    break;
                }
            }
        } else if p.eat_kw("as") {
            p.expect_kw("of")?;
            match p.next() {
                Tok::Int(n) if n >= 0 => as_of = Some(harbor_common::Timestamp(n as u64)),
                t => return Err(DbError::Schema(format!("bad AS OF time {t:?}"))),
            }
        } else if p.eat_kw("limit") {
            match p.next() {
                Tok::Int(n) if n >= 0 => limit = Some(n as usize),
                t => return Err(DbError::Schema(format!("bad LIMIT {t:?}"))),
            }
        } else if matches!(p.peek(), Tok::End) {
            break;
        } else {
            return Err(DbError::Schema(format!("unexpected {:?}", p.peek())));
        }
    }
    // Build the plan.
    let at = as_of.unwrap_or_else(|| engine.local_now().prev());
    let mut plan = plan_source(
        engine,
        &def,
        &desc,
        predicate.as_ref(),
        ReadMode::Historical(at),
    )?;
    if let Some(pred) = predicate {
        plan = Box::new(Filter::new(plan, pred));
    }
    let aggs: Vec<AggSpec> = items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Agg(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    if !aggs.is_empty() {
        // Grouped aggregation; plain columns in the select list must appear
        // in GROUP BY (checked loosely: they become group keys if none
        // were given explicitly).
        let group_exprs = if group_by.is_empty() {
            items
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Col(c) => Some(Expr::col(*c)),
                    _ => None,
                })
                .collect()
        } else {
            group_by
        };
        plan = Box::new(HashAggregate::new(plan, group_exprs, aggs));
    } else if !items.iter().any(|i| matches!(i, SelectItem::Star)) {
        let cols: Vec<usize> = items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Col(c) => Some(*c),
                _ => None,
            })
            .collect();
        plan = Box::new(Project::new(plan, cols));
    }
    if let Some(n) = limit {
        plan = Box::new(Limit::new(plan, n));
    }
    crate::op::collect(plan.as_mut())
}

/// Executes an `INSERT` / `DELETE` / `UPDATE` under `tid`; returns affected
/// row count. The caller owns commit/abort.
pub fn execute(engine: &Engine, tid: TransactionId, sql: &str) -> DbResult<usize> {
    let toks = lex(sql)?;
    let mut p = Parser {
        toks,
        at: 0,
        desc: None,
    };
    if p.eat_kw("insert") {
        p.expect_kw("into")?;
        let table = p.ident()?;
        let def = engine
            .table_def(&table)
            .ok_or_else(|| DbError::Schema(format!("no table {table:?}")))?;
        p.expect_kw("values")?;
        let mut n = 0;
        loop {
            p.expect_sym("(")?;
            let desc = def.stored_desc();
            let mut values = Vec::new();
            loop {
                let v = p.literal()?;
                let stored_col = values.len() + harbor_common::schema::NUM_VERSION_COLS;
                values.push(coerce(v, &desc, stored_col));
                if !p.eat_sym(",") {
                    break;
                }
            }
            p.expect_sym(")")?;
            engine.insert(tid, def.id, values)?;
            n += 1;
            if !p.eat_sym(",") {
                break;
            }
        }
        return Ok(n);
    }
    if p.eat_kw("delete") {
        p.expect_kw("from")?;
        let table = p.ident()?;
        let def = engine
            .table_def(&table)
            .ok_or_else(|| DbError::Schema(format!("no table {table:?}")))?;
        let desc = def.stored_desc();
        p.desc = Some(&desc);
        let pred = if p.eat_kw("where") {
            p.expr()?
        } else {
            Expr::lit(1i64) // delete everything
        };
        return run_delete(engine, tid, def.id, &pred);
    }
    if p.eat_kw("update") {
        let table = p.ident()?;
        let def = engine
            .table_def(&table)
            .ok_or_else(|| DbError::Schema(format!("no table {table:?}")))?;
        let desc = def.stored_desc();
        p.desc = Some(&desc);
        p.expect_kw("set")?;
        let mut sets: Vec<(usize, Value)> = Vec::new();
        loop {
            let name = p.ident()?;
            let col = p.column(&name)?;
            if col < harbor_common::schema::NUM_VERSION_COLS {
                return Err(DbError::Schema(
                    "cannot assign to a reserved timestamp column".into(),
                ));
            }
            p.expect_sym("=")?;
            let v = p.literal()?;
            sets.push((
                col - harbor_common::schema::NUM_VERSION_COLS,
                coerce_to(v, desc.field_type(col)),
            ));
            if !p.eat_sym(",") {
                break;
            }
        }
        let pred = if p.eat_kw("where") {
            p.expr()?
        } else {
            Expr::lit(1i64)
        };
        return run_update(engine, tid, def.id, &pred, |mut user| {
            for (i, v) in &sets {
                user[*i] = v.clone();
            }
            user
        });
    }
    Err(DbError::Schema(
        "expected SELECT, INSERT, DELETE or UPDATE".into(),
    ))
}

/// Coerces a parsed literal to the column's declared type (integers parse
/// as i64; narrow to i32 where the schema says so).
fn coerce(v: Value, desc: &TupleDesc, stored_col: usize) -> Value {
    if stored_col < desc.len() {
        coerce_to(v, desc.field_type(stored_col))
    } else {
        v
    }
}

fn coerce_to(v: Value, ty: harbor_common::FieldType) -> Value {
    match (v, ty) {
        (Value::Int64(n), harbor_common::FieldType::Int32) => Value::Int32(n as i32),
        (Value::Int64(n), harbor_common::FieldType::Time) => {
            Value::Time(harbor_common::Timestamp(n as u64))
        }
        (v, _) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::{FieldType, SiteId, StorageConfig, Timestamp};
    use harbor_engine::{EngineOptions, StepLogging};
    use std::sync::Arc;

    fn setup(name: &str) -> (Arc<Engine>, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join("harbor-sql-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = Engine::open(
            &dir,
            EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
        )
        .unwrap();
        e.create_table(
            "sales",
            vec![
                ("id".into(), FieldType::Int64),
                ("region".into(), FieldType::Int32),
                ("amount".into(), FieldType::Int32),
            ],
        )
        .unwrap();
        (e, dir)
    }

    fn tid(n: u64) -> TransactionId {
        TransactionId::from_parts(SiteId(0), n)
    }

    fn load(e: &Engine) {
        let t = tid(1);
        e.begin(t).unwrap();
        execute(
            e,
            t,
            "INSERT INTO sales VALUES (1, 0, 10), (2, 0, 20), (3, 1, 30), (4, 1, 40)",
        )
        .unwrap();
        e.commit(t, Timestamp(5), StepLogging::OFF).unwrap();
    }

    #[test]
    fn select_star_where_limit() {
        let (e, dir) = setup("select");
        load(&e);
        let rows = query(&e, "SELECT * FROM sales WHERE amount >= 20").unwrap();
        assert_eq!(rows.len(), 3);
        let rows = query(&e, "SELECT * FROM sales WHERE amount >= 20 LIMIT 2").unwrap();
        assert_eq!(rows.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn projection_resolves_names() {
        let (e, dir) = setup("project");
        load(&e);
        let rows = query(&e, "SELECT id, amount FROM sales WHERE region = 1").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grouped_aggregates() {
        let (e, dir) = setup("agg");
        load(&e);
        let mut rows = query(
            &e,
            "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region",
        )
        .unwrap();
        rows.sort_by_key(|t| t.get(0).as_i64().unwrap());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1).as_i64().unwrap(), 30);
        assert_eq!(rows[1].get(1).as_i64().unwrap(), 70);
        assert_eq!(rows[1].get(2).as_i64().unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn as_of_time_travel() {
        let (e, dir) = setup("asof");
        load(&e);
        let t = tid(2);
        e.begin(t).unwrap();
        execute(&e, t, "DELETE FROM sales WHERE id = 1").unwrap();
        e.commit(t, Timestamp(9), StepLogging::OFF).unwrap();
        assert_eq!(query(&e, "SELECT * FROM sales").unwrap().len(), 3);
        assert_eq!(query(&e, "SELECT * FROM sales AS OF 5").unwrap().len(), 4);
        // Timestamp pseudo-columns are addressable.
        let rows = query(&e, "SELECT id FROM sales WHERE insertion_time <= 5 AS OF 9").unwrap();
        assert_eq!(rows.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_and_delete() {
        let (e, dir) = setup("dml");
        load(&e);
        let t = tid(2);
        e.begin(t).unwrap();
        let n = execute(&e, t, "UPDATE sales SET amount = 99 WHERE region = 0").unwrap();
        assert_eq!(n, 2);
        e.commit(t, Timestamp(7), StepLogging::OFF).unwrap();
        let rows = query(&e, "SELECT amount FROM sales WHERE region = 0").unwrap();
        assert!(rows.iter().all(|r| r.get(0).as_i64().unwrap() == 99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_errors_are_reported() {
        let (e, dir) = setup("errors");
        load(&e);
        assert!(query(&e, "SELECT FROM sales").is_err());
        assert!(query(&e, "SELECT * FROM nope").is_err());
        assert!(query(&e, "SELECT bogus FROM sales").is_err());
        assert!(query(&e, "SELECT * sales").is_err());
        let t = tid(9);
        e.begin(t).unwrap();
        assert!(execute(&e, t, "UPDATE sales SET insertion_time = 1").is_err());
        assert!(execute(&e, t, "DROP TABLE sales").is_err());
        e.abort(t, StepLogging::OFF).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_probes_extraction() {
        let k = 0usize;
        // Equality, either orientation.
        let p = Expr::col(k).eq(Expr::lit(7i64));
        assert_eq!(key_probes(&p, k), Some(vec![7]));
        let p = Expr::lit(7i64).eq(Expr::col(k));
        assert_eq!(key_probes(&p, k), Some(vec![7]));
        // Tight range, including flipped comparisons and conjunction with
        // unrelated terms.
        let p = Expr::col(k)
            .ge(Expr::lit(3i64))
            .and(Expr::lit(5i64).ge(Expr::col(k)))
            .and(Expr::col(1).gt(Expr::lit(0i64)));
        assert_eq!(key_probes(&p, k), Some(vec![3, 4, 5]));
        // Exclusive bounds narrow the range.
        let p = Expr::col(k)
            .gt(Expr::lit(3i64))
            .and(Expr::col(k).lt(Expr::lit(6i64)));
        assert_eq!(key_probes(&p, k), Some(vec![4, 5]));
        // Contradictory bounds: empty probe set, not a scan.
        let p = Expr::col(k)
            .ge(Expr::lit(9i64))
            .and(Expr::col(k).le(Expr::lit(2i64)));
        assert_eq!(key_probes(&p, k), Some(vec![]));
        // Too wide, half-open, OR-nested, or wrong column: no index access.
        let p = Expr::col(k)
            .ge(Expr::lit(0i64))
            .and(Expr::col(k).le(Expr::lit(INDEX_PROBE_CAP)));
        assert_eq!(key_probes(&p, k), None);
        assert_eq!(key_probes(&Expr::col(k).ge(Expr::lit(3i64)), k), None);
        let p = Expr::col(k)
            .eq(Expr::lit(1i64))
            .or(Expr::col(1).eq(Expr::lit(2i64)));
        assert_eq!(key_probes(&p, k), None);
        assert_eq!(key_probes(&Expr::col(2).eq(Expr::lit(1i64)), k), None);
    }

    #[test]
    fn point_read_uses_index() {
        let (e, dir) = setup("pointidx");
        load(&e);
        let before = e.pool().metrics().snapshot();
        let rows = query(&e, "SELECT * FROM sales WHERE id = 3").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0]
                .get(harbor_common::schema::NUM_VERSION_COLS + 2)
                .as_i64()
                .unwrap(),
            30
        );
        let after = e.pool().metrics().snapshot();
        assert!(
            after.index_hits > before.index_hits,
            "equality on the key must route through the index"
        );
        // Range probes: same rows as the scan path, absent keys count misses.
        let rows = query(&e, "SELECT id FROM sales WHERE id >= 2 AND id <= 9").unwrap();
        assert_eq!(rows.len(), 3);
        let after2 = e.pool().metrics().snapshot();
        assert!(after2.index_misses > after.index_misses);
        // Residual predicate still applies on top of the probe.
        let rows = query(&e, "SELECT * FROM sales WHERE id = 3 AND amount > 99").unwrap();
        assert!(rows.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_and_scan_agree_after_dml() {
        let (e, dir) = setup("idxagree");
        load(&e);
        let t = tid(2);
        e.begin(t).unwrap();
        execute(&e, t, "UPDATE sales SET amount = 77 WHERE id = 2").unwrap();
        execute(&e, t, "DELETE FROM sales WHERE id = 4").unwrap();
        e.commit(t, Timestamp(8), StepLogging::OFF).unwrap();
        for key in [1, 2, 3, 4, 100] {
            let idx = query(&e, &format!("SELECT * FROM sales WHERE id = {key}")).unwrap();
            // Force the scan path by hiding the key term under OR with false.
            let scan = query(
                &e,
                &format!("SELECT * FROM sales WHERE id = {key} OR 1 = 2"),
            )
            .unwrap();
            assert_eq!(idx.len(), scan.len(), "key {key}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arithmetic_and_strings() {
        let (e, dir) = setup("arith");
        load(&e);
        let rows = query(
            &e,
            "SELECT SUM(amount * 2 + 1) FROM sales WHERE NOT (region <> 0)",
        )
        .unwrap();
        assert_eq!(rows[0].get(0).as_i64().unwrap(), 62);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
