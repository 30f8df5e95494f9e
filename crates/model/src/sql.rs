//! A small SQL front-end for schema design: `CREATE TABLE` with
//! possible/certain key and FD constraints, and `INSERT INTO … VALUES`.
//!
//! The dialect extends SQL DDL with the paper's constraint language:
//!
//! ```sql
//! CREATE TABLE purchase (
//!     order_id INT NOT NULL,
//!     item     TEXT NOT NULL,
//!     catalog  TEXT,
//!     price    INT NOT NULL,
//!     CONSTRAINT line CERTAIN FD (order_id, item, catalog)
//!                               -> (order_id, item, catalog, price),
//!     CONSTRAINT uniq POSSIBLE KEY (order_id, item, catalog)
//! );
//!
//! INSERT INTO purchase VALUES
//!     (5299401, 'Fitbit Surge', NULL, 240),
//!     (7485113, 'Dora Doll', 'Kingtoys', 25);
//! ```
//!
//! `render_create_table` emits the same dialect, so normalized designs
//! round-trip back into DDL.

use crate::attrs::AttrSet;
use crate::constraint::{Fd, Key, Modality, Sigma};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (columns…, constraints…)`.
    CreateTable {
        /// The declared schema (columns + NOT NULL set).
        schema: TableSchema,
        /// The declared constraint set.
        sigma: Sigma,
    },
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert {
        /// Target table name.
        table: String,
        /// The tuples to insert.
        rows: Vec<Tuple>,
    },
}

/// Parse errors with position information: the byte offset, the
/// 1-based line and (byte) column derived from it, and the offending
/// token when one was in hand — enough for a caller (CLI message,
/// server error reply) to point at the exact spot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was noticed.
    pub offset: usize,
    /// 1-based line of the offset (0 until located against a source).
    pub line: usize,
    /// 1-based byte column of the offset within its line.
    pub col: usize,
    /// The token at the error position, rendered, if any remained.
    pub token: Option<String>,
}

impl ParseError {
    fn at(message: impl Into<String>, offset: usize) -> ParseError {
        ParseError {
            message: message.into(),
            offset,
            line: 0,
            col: 0,
            token: None,
        }
    }

    fn with_token(mut self, token: impl Into<String>) -> ParseError {
        self.token = Some(token.into());
        self
    }

    /// Fills `line`/`col` from the source the error's offset refers to.
    fn locate(mut self, src: &str) -> ParseError {
        let at = self.offset.min(src.len());
        let before = &src.as_bytes()[..at];
        self.line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        self.col = at - line_start + 1;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "SQL parse error at line {}, column {}: {}",
                self.line, self.col, self.message
            )?;
        } else {
            write!(
                f,
                "SQL parse error at byte {}: {}",
                self.offset, self.message
            )?;
        }
        match &self.token {
            Some(tok) => write!(f, " (near {tok:?})"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// An identifier; the flag records whether it was `"quoted"`.
    /// Quoted identifiers never match keywords — `"constraint"` is a
    /// legal column name, `CONSTRAINT` starts a constraint clause.
    Ident(String, bool),
    Int(i64),
    Str(String),
    Punct(char),
    Arrow,
}

/// Renders a token the way it appeared in the input, for error messages.
fn render_tok(tok: &Tok) -> String {
    match tok {
        Tok::Ident(s, false) => s.clone(),
        Tok::Ident(s, true) => format!("\"{s}\""),
        Tok::Int(i) => i.to_string(),
        Tok::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Tok::Punct(c) => c.to_string(),
        Tok::Arrow => "->".to_owned(),
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    toks: Vec<(Tok, usize)>,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut l = Lexer {
        src,
        pos: 0,
        toks: Vec::new(),
    };
    let bytes = src.as_bytes();
    while l.pos < bytes.len() {
        let c = bytes[l.pos] as char;
        let start = l.pos;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                l.pos += 1;
            }
            '-' => {
                if bytes.get(l.pos + 1) == Some(&b'-') {
                    // -- line comment
                    while l.pos < bytes.len() && bytes[l.pos] != b'\n' {
                        l.pos += 1;
                    }
                } else if bytes.get(l.pos + 1) == Some(&b'>') {
                    l.toks.push((Tok::Arrow, start));
                    l.pos += 2;
                } else {
                    // negative number literal
                    l.pos += 1;
                    let ds = l.pos;
                    while l.pos < bytes.len() && bytes[l.pos].is_ascii_digit() {
                        l.pos += 1;
                    }
                    if ds == l.pos {
                        return Err(
                            ParseError::at("expected digits after '-'", start).with_token("-")
                        );
                    }
                    let n: i64 = l.src[ds..l.pos].parse().map_err(|_| {
                        ParseError::at("integer out of range", start)
                            .with_token(&l.src[start..l.pos])
                    })?;
                    l.toks.push((Tok::Int(-n), start));
                }
            }
            '(' | ')' | ',' | ';' => {
                l.toks.push((Tok::Punct(c), start));
                l.pos += 1;
            }
            '\'' => {
                l.pos += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(l.pos) {
                        None => return Err(ParseError::at("unterminated string literal", start)),
                        Some(b'\'') => {
                            if bytes.get(l.pos + 1) == Some(&b'\'') {
                                s.push('\'');
                                l.pos += 2;
                            } else {
                                l.pos += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            l.pos += 1;
                        }
                    }
                }
                l.toks.push((Tok::Str(s), start));
            }
            '0'..='9' => {
                while l.pos < bytes.len() && bytes[l.pos].is_ascii_digit() {
                    l.pos += 1;
                }
                let n: i64 = l.src[start..l.pos].parse().map_err(|_| {
                    ParseError::at("integer out of range", start).with_token(&l.src[start..l.pos])
                })?;
                l.toks.push((Tok::Int(n), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '"' => {
                if c == '"' {
                    // quoted identifier
                    l.pos += 1;
                    let ids = l.pos;
                    while l.pos < bytes.len() && bytes[l.pos] != b'"' {
                        l.pos += 1;
                    }
                    if l.pos == bytes.len() {
                        return Err(ParseError::at("unterminated quoted identifier", start));
                    }
                    l.toks
                        .push((Tok::Ident(l.src[ids..l.pos].to_owned(), true), start));
                    l.pos += 1;
                } else {
                    while l.pos < bytes.len()
                        && ((bytes[l.pos] as char).is_ascii_alphanumeric() || bytes[l.pos] == b'_')
                    {
                        l.pos += 1;
                    }
                    l.toks
                        .push((Tok::Ident(l.src[start..l.pos].to_owned(), false), start));
                }
            }
            other => {
                return Err(
                    ParseError::at(format!("unexpected character {other:?}"), start)
                        .with_token(other),
                )
            }
        }
    }
    Ok(l.toks)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    at: usize,
    end: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.at).map_or(self.end, |(_, o)| *o)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let e = ParseError::at(message, self.offset());
        match self.peek() {
            Some(tok) => e.with_token(render_tok(tok)),
            None => e,
        }
    }

    /// Like [`err`](Self::err), but blames the token just consumed —
    /// for checks that only fail after reading the offender (unknown
    /// type, unknown column).
    fn err_prev(&self, message: impl Into<String>) -> ParseError {
        let at = self.at.saturating_sub(1);
        let offset = self.toks.get(at).map_or(self.end, |(_, o)| *o);
        let e = ParseError::at(message, offset);
        match self.toks.get(at) {
            Some((tok, _)) => e.with_token(render_tok(tok)),
            None => e,
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|(t, _)| t.clone());
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            _ => {
                self.at = self.at.saturating_sub(1);
                Err(self.err(format!("expected {c:?}")))
            }
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s, false)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.at += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s, _)) => Ok(s),
            _ => {
                self.at = self.at.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn column_list(&mut self, columns: &[String]) -> Result<AttrSet, ParseError> {
        self.expect_punct('(')?;
        let mut set = AttrSet::EMPTY;
        // Empty lists are legal: `FD () -> (a)` declares a constant
        // column, and `KEY ()` forbids a second row outright.
        if let Some(Tok::Punct(')')) = self.peek() {
            self.at += 1;
            return Ok(set);
        }
        loop {
            let name = self.ident()?;
            let ix = columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(&name))
                .ok_or_else(|| self.err_prev(format!("unknown column {name:?} in constraint")))?;
            set.insert(ix.into());
            match self.next() {
                Some(Tok::Punct(',')) => continue,
                Some(Tok::Punct(')')) => return Ok(set),
                _ => {
                    self.at = self.at.saturating_sub(1);
                    return Err(self.err("expected ',' or ')' in column list"));
                }
            }
        }
    }

    fn modality(&mut self) -> Result<Modality, ParseError> {
        if self.eat_keyword("POSSIBLE") {
            Ok(Modality::Possible)
        } else if self.eat_keyword("CERTAIN") {
            Ok(Modality::Certain)
        } else {
            Err(self.err("expected POSSIBLE or CERTAIN"))
        }
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("TABLE")?;
        let name = self.ident()?;
        self.expect_punct('(')?;

        let mut columns: Vec<String> = Vec::new();
        let mut not_null: Vec<String> = Vec::new();
        // Constraints are collected as raw pieces first; column indices
        // resolve once all columns are known (we require constraints to
        // follow all column declarations, as standard SQL does).
        let mut sigma = Sigma::new();
        loop {
            if self.eat_keyword("CONSTRAINT") {
                let _cname = self.ident()?;
                let modality = self.modality()?;
                if self.eat_keyword("KEY") {
                    let attrs = self.column_list(&columns)?;
                    sigma.add(Key { attrs, modality });
                } else if self.eat_keyword("FD") {
                    let lhs = self.column_list(&columns)?;
                    match self.next() {
                        Some(Tok::Arrow) => {}
                        _ => {
                            self.at = self.at.saturating_sub(1);
                            return Err(self.err("expected '->' in FD constraint"));
                        }
                    }
                    let rhs = self.column_list(&columns)?;
                    sigma.add(Fd { lhs, rhs, modality });
                } else {
                    return Err(self.err("expected KEY or FD after modality"));
                }
            } else {
                // Column declaration: name TYPE [NOT NULL]
                let col = self.ident()?;
                let ty = self.ident()?;
                let known = [
                    "INT", "INTEGER", "BIGINT", "TEXT", "VARCHAR", "BOOL", "BOOLEAN",
                ];
                if !known.iter().any(|k| k.eq_ignore_ascii_case(&ty)) {
                    return Err(self.err_prev(format!("unknown type {ty:?}")));
                }
                if self.eat_keyword("NOT") {
                    self.expect_keyword("NULL")?;
                    not_null.push(col.clone());
                }
                if columns.iter().any(|c| c == &col) {
                    return Err(self.err(format!("duplicate column {col:?}")));
                }
                if columns.len() >= crate::attrs::MAX_ATTRS {
                    return Err(self.err("at most 128 columns are supported"));
                }
                columns.push(col);
            }
            match self.next() {
                Some(Tok::Punct(',')) => continue,
                Some(Tok::Punct(')')) => break,
                _ => {
                    self.at = self.at.saturating_sub(1);
                    return Err(self.err("expected ',' or ')' in CREATE TABLE"));
                }
            }
        }
        if columns.is_empty() {
            return Err(self.err("CREATE TABLE needs at least one column"));
        }
        let nn: Vec<&str> = not_null.iter().map(String::as_str).collect();
        let schema = TableSchema::new(name, columns, &nn);
        Ok(Statement::CreateTable { schema, sigma })
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct('(')?;
            let mut vals: Vec<Value> = Vec::new();
            loop {
                let v = match self.next() {
                    Some(Tok::Int(i)) => Value::Int(i),
                    Some(Tok::Str(s)) => Value::Str(s),
                    Some(Tok::Ident(id, false)) if id.eq_ignore_ascii_case("NULL") => Value::Null,
                    Some(Tok::Ident(id, false)) if id.eq_ignore_ascii_case("TRUE") => {
                        Value::Bool(true)
                    }
                    Some(Tok::Ident(id, false)) if id.eq_ignore_ascii_case("FALSE") => {
                        Value::Bool(false)
                    }
                    _ => {
                        self.at = self.at.saturating_sub(1);
                        return Err(self.err("expected literal in VALUES"));
                    }
                };
                vals.push(v);
                match self.next() {
                    Some(Tok::Punct(',')) => continue,
                    Some(Tok::Punct(')')) => break,
                    _ => {
                        self.at = self.at.saturating_sub(1);
                        return Err(self.err("expected ',' or ')' in VALUES tuple"));
                    }
                }
            }
            rows.push(Tuple::new(vals));
            if let Some(Tok::Punct(',')) = self.peek() {
                self.at += 1;
                continue;
            }
            break;
        }
        Ok(Statement::Insert { table, rows })
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("CREATE") {
            self.create_table()
        } else if self.eat_keyword("INSERT") {
            self.insert()
        } else {
            Err(self.err("expected CREATE or INSERT"))
        }
    }
}

/// Parses a script of `;`-separated statements.
pub fn parse_script(src: &str) -> Result<Vec<Statement>, ParseError> {
    parse_script_inner(src).map_err(|e| e.locate(src))
}

fn parse_script_inner(src: &str) -> Result<Vec<Statement>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        at: 0,
        end: src.len(),
    };
    let mut out = Vec::new();
    loop {
        // Skip stray semicolons.
        while let Some(Tok::Punct(';')) = p.peek() {
            p.at += 1;
        }
        if p.peek().is_none() {
            return Ok(out);
        }
        out.push(p.statement()?);
        if p.peek().is_some() {
            p.expect_punct(';')?;
        }
    }
}

/// Parses a single statement.
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let stmts = parse_script(src)?;
    match <[Statement; 1]>::try_from(stmts) {
        Ok([s]) => Ok(s),
        Err(v) => Err(ParseError::at(
            format!("expected exactly one statement, found {}", v.len()),
            0,
        )
        .locate(src)),
    }
}

/// Words the parser treats as keywords in some position; rendered
/// identifiers that collide must be quoted or they won't re-parse.
const RESERVED: &[&str] = &[
    "CREATE",
    "TABLE",
    "INSERT",
    "INTO",
    "VALUES",
    "CONSTRAINT",
    "POSSIBLE",
    "CERTAIN",
    "KEY",
    "FD",
    "NOT",
    "NULL",
    "INT",
    "INTEGER",
    "BIGINT",
    "TEXT",
    "VARCHAR",
    "BOOL",
    "BOOLEAN",
    "TRUE",
    "FALSE",
];

fn quote_ident(name: &str) -> String {
    if !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && !RESERVED.iter().any(|k| k.eq_ignore_ascii_case(name))
    {
        name.to_owned()
    } else {
        format!("\"{name}\"")
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Bool(true) => "TRUE".to_owned(),
        Value::Bool(false) => "FALSE".to_owned(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Renders rows as an `INSERT INTO … VALUES …;` statement in the
/// dialect parsed by [`parse_script`] — the WAL and snapshot format
/// of the server is exactly this round-trip.
pub fn render_insert(table: &str, rows: &[Tuple]) -> String {
    render_rows(table, rows.iter().map(|row| row.values().iter()))
}

/// [`render_insert`] of every row of `data`, each cell read through its
/// code: no tuple is decoded.
pub fn render_table_insert(table: &str, data: &Table) -> String {
    render_rows(table, data.iter().map(|row| row.values()))
}

fn render_rows<'a, R>(table: &str, rows: impl Iterator<Item = R>) -> String
where
    R: Iterator<Item = &'a Value>,
{
    let mut out = format!("INSERT INTO {} VALUES ", quote_ident(table));
    for (i, row) in rows.enumerate() {
        out.push_str(if i == 0 { "(" } else { ", (" });
        for (j, v) in row.enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&sql_literal(v));
        }
        out.push(')');
    }
    out.push(';');
    out
}

fn column_list_sql(schema: &TableSchema, set: AttrSet) -> String {
    let cols: Vec<String> = set
        .iter()
        .map(|a| quote_ident(schema.column_name(a)))
        .collect();
    format!("({})", cols.join(", "))
}

/// Renders a schema + constraint set back into the DDL dialect parsed
/// by [`parse_script`] (round-trip tested).
pub fn render_create_table(schema: &TableSchema, sigma: &Sigma) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (i, col) in schema.column_names().iter().enumerate() {
        let nn = if schema.nfs().contains(i.into()) {
            " NOT NULL"
        } else {
            ""
        };
        lines.push(format!("    {} TEXT{nn}", quote_ident(col)));
    }
    for (i, fd) in sigma.fds.iter().enumerate() {
        let m = match fd.modality {
            Modality::Possible => "POSSIBLE",
            Modality::Certain => "CERTAIN",
        };
        lines.push(format!(
            "    CONSTRAINT fd{i} {m} FD {} -> {}",
            column_list_sql(schema, fd.lhs),
            column_list_sql(schema, fd.rhs)
        ));
    }
    for (i, key) in sigma.keys.iter().enumerate() {
        let m = match key.modality {
            Modality::Possible => "POSSIBLE",
            Modality::Certain => "CERTAIN",
        };
        lines.push(format!(
            "    CONSTRAINT key{i} {m} KEY {}",
            column_list_sql(schema, key.attrs)
        ));
    }
    format!(
        "CREATE TABLE {} (\n{}\n);",
        quote_ident(schema.name()),
        lines.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    const PURCHASE_DDL: &str = "
        CREATE TABLE purchase (
            order_id INT NOT NULL,
            item     TEXT NOT NULL,
            catalog  TEXT,
            price    INT NOT NULL,
            -- the paper's Example 3 rule:
            CONSTRAINT line CERTAIN FD (order_id, item, catalog)
                                      -> (order_id, item, catalog, price),
            CONSTRAINT uniq POSSIBLE KEY (order_id, item, catalog)
        );
    ";

    #[test]
    fn parses_create_table_with_constraints() {
        let stmt = parse_statement(PURCHASE_DDL).unwrap();
        let Statement::CreateTable { schema, sigma } = stmt else {
            panic!("expected CREATE TABLE");
        };
        assert_eq!(schema.name(), "purchase");
        assert_eq!(schema.arity(), 4);
        assert_eq!(schema.nfs(), schema.set(&["order_id", "item", "price"]));
        assert_eq!(sigma.fds.len(), 1);
        assert_eq!(sigma.keys.len(), 1);
        let fd = sigma.fds[0];
        assert_eq!(fd.modality, Modality::Certain);
        assert_eq!(fd.lhs, schema.set(&["order_id", "item", "catalog"]));
        assert!(fd.is_total_form());
        assert_eq!(sigma.keys[0].modality, Modality::Possible);
    }

    #[test]
    fn parses_insert_with_nulls_and_escapes() {
        let stmt = parse_statement(
            "INSERT INTO purchase VALUES \
             (5299401, 'Fitbit Surge', NULL, 240), \
             (-7, 'O''Brien', 'Kingtoys', 25);",
        )
        .unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!("expected INSERT");
        };
        assert_eq!(table, "purchase");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], tuple![5299401i64, "Fitbit Surge", null, 240i64]);
        assert_eq!(rows[1], tuple![(-7i64), "O'Brien", "Kingtoys", 25i64]);
    }

    #[test]
    fn parses_scripts_and_booleans() {
        let script = "
            CREATE TABLE t (a BOOL, b INTEGER NOT NULL);
            INSERT INTO t VALUES (TRUE, 1), (FALSE, 2);
        ";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 2);
        let Statement::Insert { rows, .. } = &stmts[1] else {
            panic!()
        };
        assert_eq!(rows[0], tuple![true, 1i64]);
    }

    #[test]
    fn quoted_identifiers() {
        let stmt = parse_statement(
            "CREATE TABLE \"contact draft\" (\"first name\" TEXT, x INT, \
             CONSTRAINT c CERTAIN KEY (\"first name\"));",
        )
        .unwrap();
        let Statement::CreateTable { schema, sigma } = stmt else {
            panic!()
        };
        assert_eq!(schema.name(), "contact draft");
        assert_eq!(schema.column_name(0.into()), "first name");
        assert_eq!(sigma.keys[0].attrs, AttrSet::from_indices([0]));
    }

    #[test]
    fn error_reporting() {
        let cases: Vec<(&str, &str)> = vec![
            ("CREATE TABLE t ()", "expected identifier"),
            ("CREATE TABLE t (a FLOAT)", "unknown type"),
            (
                "CREATE TABLE t (a INT, CONSTRAINT c CERTAIN FD (b) -> (a))",
                "unknown column",
            ),
            (
                "CREATE TABLE t (a INT, CONSTRAINT c MAYBE KEY (a))",
                "POSSIBLE or CERTAIN",
            ),
            ("INSERT INTO t VALUES (1", "expected ',' or ')'"),
            ("DROP TABLE t", "expected CREATE or INSERT"),
            ("INSERT INTO t VALUES ('oops)", "unterminated string"),
        ];
        for (src, needle) in cases {
            let err = parse_script(src).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{src:?} gave {err:?}, wanted {needle:?}"
            );
            // Every error from parse_script is located against the source.
            assert!(err.line >= 1, "{src:?} gave unlocated {err:?}");
            assert!(err.col >= 1, "{src:?} gave unlocated {err:?}");
        }
    }

    #[test]
    fn errors_carry_line_column_and_token() {
        let src = "CREATE TABLE t (\n    a INT,\n    b FLOAT\n);";
        let err = parse_script(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.col, 7);
        assert_eq!(err.token.as_deref(), Some("FLOAT"));
        let shown = err.to_string();
        assert!(shown.contains("line 3, column 7"), "{shown}");
        assert!(shown.contains("FLOAT"), "{shown}");

        // Offending token also surfaces for stray punctuation.
        let err = parse_script("DROP TABLE t").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("DROP"));
        assert_eq!((err.line, err.col), (1, 1));

        // Lexer errors locate too.
        let err = parse_script("INSERT INTO t VALUES\n(1, ?)").unwrap_err();
        assert_eq!((err.line, err.col), (2, 5));
        assert_eq!(err.token.as_deref(), Some("?"));
    }

    #[test]
    fn quoted_identifiers_are_never_keywords() {
        // A column may be named after any keyword as long as it is
        // quoted; the parser must not mistake it for the start of a
        // constraint clause (or a NULL/TRUE/FALSE literal).
        let ddl = "CREATE TABLE \"table\" (
            \"constraint\" TEXT,
            \"certain\" TEXT NOT NULL,
            \"null\" INT,
            CONSTRAINT c CERTAIN FD (\"constraint\") -> (\"certain\")
        );";
        let Statement::CreateTable { schema, sigma } = parse_statement(ddl).unwrap() else {
            panic!("expected CREATE TABLE");
        };
        assert_eq!(schema.name(), "table");
        assert_eq!(schema.column_names(), ["constraint", "certain", "null"]);
        assert_eq!(sigma.fds.len(), 1);
        // And the round trip re-quotes them.
        let back = render_create_table(&schema, &sigma);
        let reparsed = parse_statement(&back).unwrap();
        let Statement::CreateTable { schema: s2, .. } = reparsed else {
            panic!("expected CREATE TABLE");
        };
        assert_eq!(schema.column_names(), s2.column_names());

        // In a VALUES list a quoted "NULL" is an identifier, not the
        // null marker: rejected, with the quoting visible in the error.
        let err =
            parse_script("CREATE TABLE t (a INT);\nINSERT INTO t VALUES (\"NULL\");").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("\"NULL\""));
    }

    #[test]
    fn render_insert_round_trips() {
        let rows = vec![
            tuple![5299401i64, "Fitbit ''Surge'", null, true],
            tuple![(-7i64), "O'Brien", "King\ntoys", false],
        ];
        let sql = render_insert("values", &rows);
        assert!(sql.starts_with("INSERT INTO \"values\" VALUES"), "{sql}");
        let Statement::Insert { table, rows: back } = parse_statement(&sql).unwrap() else {
            panic!("expected INSERT");
        };
        assert_eq!(table, "values");
        assert_eq!(back, rows);
    }

    #[test]
    fn render_round_trips() {
        let Statement::CreateTable { schema, sigma } = parse_statement(PURCHASE_DDL).unwrap()
        else {
            panic!()
        };
        let rendered = render_create_table(&schema, &sigma);
        let Statement::CreateTable {
            schema: schema2,
            sigma: sigma2,
        } = parse_statement(&rendered).unwrap()
        else {
            panic!()
        };
        assert_eq!(schema.column_names(), schema2.column_names());
        assert_eq!(schema.nfs(), schema2.nfs());
        assert_eq!(sigma, sigma2);
    }

    #[test]
    fn render_quotes_weird_names() {
        let schema = TableSchema::new("weird table", ["first name", "ok_col"], &["ok_col"]);
        let sigma = Sigma::new().with(Key::certain(AttrSet::from_indices([0])));
        let ddl = render_create_table(&schema, &sigma);
        assert!(ddl.contains("\"weird table\""));
        assert!(ddl.contains("\"first name\""));
        let reparsed = parse_statement(&ddl).unwrap();
        let Statement::CreateTable { schema: s2, .. } = reparsed else {
            panic!()
        };
        assert_eq!(s2.name(), "weird table");
    }
}
