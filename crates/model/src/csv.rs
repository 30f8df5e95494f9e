//! Minimal CSV reading/writing for tables.
//!
//! Hand-rolled (RFC-4180-style quoting) to stay within the approved
//! dependency set. Empty fields and the literal `NULL` load as the null
//! marker; integers load as [`Value::Int`]; everything else as strings.

use crate::schema::TableSchema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt::Write as _;

/// Errors raised while parsing CSV input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header line.
    MissingHeader,
    /// A data row had a different number of fields than the header.
    RaggedRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// A quoted field was not terminated.
    UnterminatedQuote {
        /// 1-based line number where the quote opened.
        line: usize,
    },
    /// The header repeats a column name.
    DuplicateColumn(String),
    /// More columns than the 128-attribute schema limit.
    TooManyColumns(usize),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "CSV input has no header line"),
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => write!(
                f,
                "CSV row at line {line} has {got} fields, expected {expected}"
            ),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting at line {line}")
            }
            CsvError::DuplicateColumn(c) => {
                write!(f, "CSV header repeats column {c:?}")
            }
            CsvError::TooManyColumns(n) => {
                write!(f, "CSV has {n} columns; at most 128 are supported")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits CSV text into records of fields, honouring double-quoted
/// fields with `""` escapes and embedded newlines.
fn parse_records(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut quote_line = 1usize;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quote_line = line;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: quote_line });
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Parses CSV text (header line first) into a table named `name`. All
/// columns are nullable; declare an NFS afterwards with
/// [`TableSchema::with_nfs`] if needed.
pub fn table_from_csv(name: &str, input: &str) -> Result<Table, CsvError> {
    let records = parse_records(input)?;
    let mut it = records.into_iter();
    let header = it.next().ok_or(CsvError::MissingHeader)?;
    if header.len() > crate::attrs::MAX_ATTRS {
        return Err(CsvError::TooManyColumns(header.len()));
    }
    for (i, c) in header.iter().enumerate() {
        if header[..i].contains(c) {
            return Err(CsvError::DuplicateColumn(c.clone()));
        }
    }
    let schema = TableSchema::new(name, header.clone(), &[]);
    let mut table = Table::new(schema);
    for (i, rec) in it.enumerate() {
        if rec.len() != header.len() {
            return Err(CsvError::RaggedRow {
                line: i + 2,
                got: rec.len(),
                expected: header.len(),
            });
        }
        table.push(Tuple::new(
            rec.iter()
                .map(|f| Value::parse_field(f))
                .collect::<Vec<_>>(),
        ));
    }
    Ok(table)
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serializes a table to CSV text with a header line; nulls are written
/// as the literal `NULL`.
pub fn table_to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .column_names()
        .iter()
        .map(|c| escape(c))
        .collect();
    let _ = writeln!(out, "{}", header.join(","));
    for t in table.iter() {
        let row: Vec<String> = t
            .values()
            .map(|v| match v {
                Value::Null => "NULL".to_owned(),
                other => escape(&other.to_string()),
            })
            .collect();
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn roundtrip_simple() {
        let csv = "a,b,c\n1,x,NULL\n2,,z\n";
        let t = table_from_csv("t", csv).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0], tuple![1i64, "x", null]);
        assert_eq!(t.rows()[1], tuple![2i64, null, "z"]);
        let back = table_to_csv(&t);
        let t2 = table_from_csv("t", &back).unwrap();
        assert!(t.multiset_eq(&t2));
    }

    #[test]
    fn quoted_fields() {
        let csv = "name,bio\n\"Brennan, M.D.\",\"says \"\"hi\"\"\"\n";
        let t = table_from_csv("t", csv).unwrap();
        assert_eq!(t.rows()[0], tuple!["Brennan, M.D.", "says \"hi\""]);
        let back = table_to_csv(&t);
        let t2 = table_from_csv("t", &back).unwrap();
        assert!(t.multiset_eq(&t2));
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let csv = "a\n\"line1\nline2\"\n";
        let t = table_from_csv("t", csv).unwrap();
        assert_eq!(t.rows()[0], tuple!["line1\nline2"]);
    }

    #[test]
    fn crlf_input() {
        let csv = "a,b\r\n1,2\r\n";
        let t = table_from_csv("t", csv).unwrap();
        assert_eq!(t.rows()[0], tuple![1i64, 2i64]);
    }

    #[test]
    fn missing_final_newline() {
        let t = table_from_csv("t", "a\n7").unwrap();
        assert_eq!(t.rows()[0], tuple![7i64]);
    }

    #[test]
    fn errors() {
        assert_eq!(table_from_csv("t", ""), Err(CsvError::MissingHeader));
        assert!(matches!(
            table_from_csv("t", "a,b\n1\n"),
            Err(CsvError::RaggedRow {
                line: 2,
                got: 1,
                expected: 2
            })
        ));
        assert!(matches!(
            table_from_csv("t", "a\n\"oops\n"),
            Err(CsvError::UnterminatedQuote { .. })
        ));
    }
}
