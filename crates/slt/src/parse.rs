//! Parser for the repo's sqllogictest-style `.slt` dialect.
//!
//! A file is a sequence of *records* separated by blank lines. Lines
//! whose first non-space character is `#` are comments. Record forms:
//!
//! ```text
//! statement ok
//! CREATE TABLE r (a INT)
//!
//! statement error duplicate table
//! CREATE TABLE r (a INT)
//!
//! query II rowsort optional-label
//! SELECT a, b FROM r
//! ----
//! 1
//! 10
//! 2
//! 20
//!
//! query I nosort
//! SELECT COUNT(*) FROM big
//! ----
//! 30 values hashing to 1f2e3d4c5b6a7988
//!
//! hash-threshold 8
//! load tpch 0.01 42
//! onlyif unnested
//! skipif S1
//! ```
//!
//! Differences from sqlite's dialect, on purpose:
//!
//! * `onlyif` / `skipif` name *evaluation strategies* (the engine's
//!   seven-way [`bypass_core::Strategy`] matrix), not database engines,
//!   and they only apply to `query` records;
//! * a `statement error` whose SQL is a `SELECT` must fail, with the
//!   expected text, at every point of the strategy × threads grid — no
//!   rewrite may lose an error;
//! * `load tpch|strings|skew <scale> [seed]` registers a deterministic
//!   generated instance from `bypass-datagen`;
//! * a `query T nosort` record whose SQL is `EXPLAIN <select>` is a plan
//!   golden: the runner compares the lines of `Database::explain` up to
//!   the physical plan instead of a result set;
//! * result hashes are FNV-1a 64 (the in-tree hash also used by query
//!   fingerprints), not MD5 — the repo has no MD5 and does not want one.
//!
//! Every parse error carries the 1-based line number it was found on.

use std::fmt;

/// How a query record's result is normalized before comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMode {
    /// Compare in engine output order (use only with ORDER BY queries
    /// whose key covers every output column).
    NoSort,
    /// Sort whole rows lexicographically after formatting.
    RowSort,
    /// Sort the flattened value list (row structure ignored).
    ValueSort,
}

/// Declared column type of a query record: `I`nteger, `R`eal, `T`ext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeChar {
    I,
    R,
    T,
}

/// Expected result of a `query` record.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// One formatted value per line, already in normalized order.
    Values(Vec<String>),
    /// `<count> values hashing to <fnv1a64-hex>`.
    Hash { count: usize, hash: u64 },
}

/// Strategy guards attached to a `query` record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Conditions {
    /// `onlyif <strategy>` lines (run on these strategies only).
    pub only: Vec<String>,
    /// `skipif <strategy>` lines.
    pub skip: Vec<String>,
}

impl Conditions {
    pub fn is_empty(&self) -> bool {
        self.only.is_empty() && self.skip.is_empty()
    }

    /// Does the guard admit a strategy with this (lowercased) name?
    pub fn admits(&self, strategy_name: &str) -> bool {
        if self.skip.iter().any(|s| s == strategy_name) {
            return false;
        }
        self.only.is_empty() || self.only.iter().any(|s| s == strategy_name)
    }
}

/// A generated instance to register before the next statements run.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadKind {
    /// Full TPC-H instance at this scale factor.
    Tpch { sf: f64, seed: u64 },
    /// Strings/dates-heavy schema (`words`, `events`).
    Strings { rows: usize, seed: u64 },
    /// Pathologically skewed schema (`hot`, `cold`).
    Skew { rows: usize, seed: u64 },
}

/// One record of an `.slt` file.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    Statement {
        /// `statement error` expects a typed engine error; the optional
        /// string must occur in the error message.
        expect_error: bool,
        error_substring: Option<String>,
        sql: String,
    },
    Query {
        types: Vec<TypeChar>,
        sort: SortMode,
        label: Option<String>,
        conditions: Conditions,
        sql: String,
        expected: Expected,
    },
    /// `hash-threshold N` — advisory: files whose expected results were
    /// longer than N lines store a hash instead. The checker accepts
    /// both forms regardless, so the record is recorded but inert.
    HashThreshold(usize),
    Load(LoadKind),
}

/// A record plus the line its directive appeared on.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub line: usize,
    pub kind: RecordKind,
}

/// A parsed `.slt` file.
#[derive(Debug, Clone)]
pub struct SltFile {
    pub name: String,
    pub records: Vec<Record>,
}

/// A parse error with its position: `file.slt:12: unknown record type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub name: String,
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.name, self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The strategy names `onlyif` / `skipif` accept (lowercased display
/// names of the seven [`bypass_core::Strategy`] variants).
pub const STRATEGY_NAMES: [&str; 7] = [
    "s1",
    "s2",
    "s3",
    "canonical",
    "unnested",
    "unnested-sqfirst",
    "cost-based",
];

/// Parse `src` as one `.slt` file; `name` is used in error positions.
pub fn parse_str(name: &str, src: &str) -> Result<SltFile, ParseError> {
    Parser {
        name,
        lines: src.lines().collect(),
        pos: 0,
    }
    .parse()
}

struct Parser<'a> {
    name: &'a str,
    lines: Vec<&'a str>,
    /// 0-based index of the next unconsumed line.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, line: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            name: self.name.to_string(),
            line,
            msg: msg.into(),
        }
    }

    /// 1-based number of the line `pos` points at.
    fn lineno(&self) -> usize {
        self.pos + 1
    }

    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn next_line(&mut self) -> Option<&'a str> {
        let l = self.peek()?;
        self.pos += 1;
        Some(l)
    }

    fn parse(mut self) -> Result<SltFile, ParseError> {
        let mut records = Vec::new();
        let mut conditions = Conditions::default();
        let mut conditions_line = 0usize;
        while let Some(raw) = self.peek() {
            let line = raw.trim_end();
            let lineno = self.lineno();
            if line.is_empty() || line.trim_start().starts_with('#') {
                self.pos += 1;
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[0] {
                "onlyif" | "skipif" => {
                    let strat = words
                        .get(1)
                        .ok_or_else(|| {
                            self.error(lineno, format!("{} needs a strategy name", words[0]))
                        })?
                        .to_ascii_lowercase();
                    if !STRATEGY_NAMES.contains(&strat.as_str()) {
                        return Err(self.error(
                            lineno,
                            format!(
                                "unknown strategy `{strat}` (expected one of: {})",
                                STRATEGY_NAMES.join(", ")
                            ),
                        ));
                    }
                    if words[0] == "onlyif" {
                        conditions.only.push(strat);
                    } else {
                        conditions.skip.push(strat);
                    }
                    conditions_line = lineno;
                    self.pos += 1;
                }
                "statement" => {
                    if !conditions.is_empty() {
                        return Err(self.error(
                            conditions_line,
                            "onlyif/skipif apply to query records only \
                             (statements run strategy-independently)",
                        ));
                    }
                    self.pos += 1;
                    records.push(self.statement(lineno, &words)?);
                }
                "query" => {
                    self.pos += 1;
                    let guards = std::mem::take(&mut conditions);
                    records.push(self.query(lineno, &words, guards)?);
                }
                "hash-threshold" => {
                    if !conditions.is_empty() {
                        return Err(self
                            .error(conditions_line, "onlyif/skipif apply to query records only"));
                    }
                    let n = words
                        .get(1)
                        .and_then(|w| w.parse::<usize>().ok())
                        .ok_or_else(|| self.error(lineno, "hash-threshold needs a number"))?;
                    records.push(Record {
                        line: lineno,
                        kind: RecordKind::HashThreshold(n),
                    });
                    self.pos += 1;
                }
                "load" => {
                    if !conditions.is_empty() {
                        return Err(self
                            .error(conditions_line, "onlyif/skipif apply to query records only"));
                    }
                    records.push(self.load(lineno, &words)?);
                    self.pos += 1;
                }
                other => {
                    return Err(self.error(
                        lineno,
                        format!(
                            "unknown record type `{other}` (expected statement, query, \
                             hash-threshold, load, onlyif or skipif)"
                        ),
                    ))
                }
            }
        }
        if !conditions.is_empty() {
            return Err(self.error(conditions_line, "onlyif/skipif without a following query"));
        }
        Ok(SltFile {
            name: self.name.to_string(),
            records,
        })
    }

    /// SQL lines until a blank line / EOF, joined with newlines.
    fn sql_block(&mut self, directive_line: usize) -> Result<String, ParseError> {
        let mut sql = Vec::new();
        while let Some(l) = self.peek() {
            let t = l.trim_end();
            if t.is_empty() || t == "----" {
                break;
            }
            sql.push(t);
            self.pos += 1;
        }
        if sql.is_empty() {
            return Err(self.error(directive_line, "record has no SQL"));
        }
        Ok(sql.join("\n"))
    }

    fn statement(&mut self, lineno: usize, words: &[&str]) -> Result<Record, ParseError> {
        let (expect_error, error_substring) = match words.get(1) {
            Some(&"ok") => (false, None),
            Some(&"error") => {
                let rest = words[2..].join(" ");
                (true, if rest.is_empty() { None } else { Some(rest) })
            }
            _ => return Err(self.error(lineno, "expected `statement ok` or `statement error`")),
        };
        let sql = self.sql_block(lineno)?;
        if self.peek().map(|l| l.trim_end()) == Some("----") {
            return Err(self.error(
                self.lineno(),
                "statement records take no result block (use `query`)",
            ));
        }
        Ok(Record {
            line: lineno,
            kind: RecordKind::Statement {
                expect_error,
                error_substring,
                sql,
            },
        })
    }

    fn query(
        &mut self,
        lineno: usize,
        words: &[&str],
        conditions: Conditions,
    ) -> Result<Record, ParseError> {
        let type_str = words
            .get(1)
            .ok_or_else(|| self.error(lineno, "query needs a type string (e.g. `query ITR`)"))?;
        let mut types = Vec::with_capacity(type_str.len());
        for c in type_str.chars() {
            types.push(match c {
                'I' => TypeChar::I,
                'R' => TypeChar::R,
                'T' => TypeChar::T,
                other => {
                    return Err(self.error(
                        lineno,
                        format!("bad type character `{other}` (expected I, R or T)"),
                    ))
                }
            });
        }
        let (sort, label) = match words.get(2) {
            None => (SortMode::NoSort, None),
            Some(&"nosort") => (SortMode::NoSort, words.get(3).map(|s| s.to_string())),
            Some(&"rowsort") => (SortMode::RowSort, words.get(3).map(|s| s.to_string())),
            Some(&"valuesort") => (SortMode::ValueSort, words.get(3).map(|s| s.to_string())),
            Some(other) => {
                return Err(self.error(
                    lineno,
                    format!("bad sort mode `{other}` (expected nosort, rowsort or valuesort)"),
                ))
            }
        };
        let sql = self.sql_block(lineno)?;
        if self.next_line().map(|l| l.trim_end()) != Some("----") {
            return Err(self.error(
                lineno,
                "query record needs a `----` line before its results",
            ));
        }
        let mut values = Vec::new();
        while let Some(l) = self.peek() {
            let t = l.trim_end();
            if t.is_empty() {
                break;
            }
            values.push(t.to_string());
            self.pos += 1;
        }
        let expected = match parse_hash_line(&values) {
            Some((count, hash)) => Expected::Hash { count, hash },
            None => {
                if !values.is_empty() && values.len() % types.len() != 0 {
                    return Err(self.error(
                        lineno,
                        format!(
                            "{} result values do not fill rows of {} columns",
                            values.len(),
                            types.len()
                        ),
                    ));
                }
                Expected::Values(values)
            }
        };
        Ok(Record {
            line: lineno,
            kind: RecordKind::Query {
                types,
                sort,
                label,
                conditions,
                sql,
                expected,
            },
        })
    }

    fn load(&mut self, lineno: usize, words: &[&str]) -> Result<Record, ParseError> {
        let seed = match words.get(3) {
            None => 42,
            Some(w) => w
                .parse::<u64>()
                .map_err(|_| self.error(lineno, format!("bad load seed `{w}`")))?,
        };
        let scale = words
            .get(2)
            .ok_or_else(|| self.error(lineno, "load needs a scale (e.g. `load tpch 0.01`)"))?;
        let kind = match words.get(1) {
            Some(&"tpch") => {
                let sf = scale
                    .parse::<f64>()
                    .ok()
                    .filter(|sf| *sf > 0.0 && *sf <= 1.0)
                    .ok_or_else(|| {
                        self.error(lineno, format!("bad tpch scale factor `{scale}`"))
                    })?;
                LoadKind::Tpch { sf, seed }
            }
            Some(&"strings") => {
                let rows = scale
                    .parse::<usize>()
                    .map_err(|_| self.error(lineno, format!("bad strings row count `{scale}`")))?;
                LoadKind::Strings { rows, seed }
            }
            Some(&"skew") => {
                let rows = scale
                    .parse::<usize>()
                    .map_err(|_| self.error(lineno, format!("bad skew row count `{scale}`")))?;
                LoadKind::Skew { rows, seed }
            }
            _ => return Err(self.error(lineno, "expected `load tpch|strings|skew <scale> [seed]`")),
        };
        Ok(Record {
            line: lineno,
            kind: RecordKind::Load(kind),
        })
    }
}

/// Recognize a one-line `<count> values hashing to <hex>` result block.
fn parse_hash_line(values: &[String]) -> Option<(usize, u64)> {
    if values.len() != 1 {
        return None;
    }
    let words: Vec<&str> = values[0].split_whitespace().collect();
    if words.len() == 5 && words[1] == "values" && words[2] == "hashing" && words[3] == "to" {
        let count = words[0].parse::<usize>().ok()?;
        let hash = u64::from_str_radix(words[4], 16).ok()?;
        Some((count, hash))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Result<SltFile, ParseError> {
        parse_str("test.slt", src)
    }

    fn err(src: &str) -> ParseError {
        parse(src).expect_err("expected a parse error")
    }

    #[test]
    fn parses_statements_and_queries() {
        let file = parse(
            "# a comment\n\
             statement ok\n\
             CREATE TABLE r (a INT)\n\
             \n\
             statement error duplicate\n\
             CREATE TABLE r (a INT)\n\
             \n\
             query II rowsort label-1\n\
             SELECT a, a FROM r\n\
             ----\n\
             1\n\
             1\n",
        )
        .unwrap();
        assert_eq!(file.records.len(), 3);
        assert_eq!(file.records[0].line, 2);
        assert!(matches!(
            &file.records[0].kind,
            RecordKind::Statement {
                expect_error: false,
                ..
            }
        ));
        let RecordKind::Statement {
            expect_error,
            error_substring,
            ..
        } = &file.records[1].kind
        else {
            panic!()
        };
        assert!(*expect_error);
        assert_eq!(error_substring.as_deref(), Some("duplicate"));
        let RecordKind::Query {
            types,
            sort,
            label,
            expected,
            sql,
            ..
        } = &file.records[2].kind
        else {
            panic!()
        };
        assert_eq!(types, &[TypeChar::I, TypeChar::I]);
        assert_eq!(*sort, SortMode::RowSort);
        assert_eq!(label.as_deref(), Some("label-1"));
        assert_eq!(sql, "SELECT a, a FROM r");
        assert_eq!(
            expected,
            &Expected::Values(vec!["1".to_string(), "1".to_string()])
        );
    }

    #[test]
    fn parses_hash_results_and_directives() {
        let file = parse(
            "hash-threshold 8\n\
             load tpch 0.01 7\n\
             \n\
             skipif s1\n\
             onlyif unnested\n\
             query I valuesort\n\
             SELECT COUNT(*) FROM part\n\
             ----\n\
             30 values hashing to 1f2e3d4c5b6a7988\n",
        )
        .unwrap();
        assert!(matches!(file.records[0].kind, RecordKind::HashThreshold(8)));
        assert_eq!(
            file.records[1].kind,
            RecordKind::Load(LoadKind::Tpch { sf: 0.01, seed: 7 })
        );
        let RecordKind::Query {
            conditions,
            expected,
            ..
        } = &file.records[2].kind
        else {
            panic!()
        };
        assert_eq!(conditions.skip, vec!["s1"]);
        assert_eq!(conditions.only, vec!["unnested"]);
        assert!(conditions.admits("unnested"));
        assert!(!conditions.admits("s1"));
        assert!(!conditions.admits("canonical"));
        assert_eq!(
            expected,
            &Expected::Hash {
                count: 30,
                hash: 0x1f2e_3d4c_5b6a_7988
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = err("statement ok\nCREATE TABLE r (a INT)\n\nfrobnicate\nSELECT 1\n");
        assert_eq!((e.line, e.name.as_str()), (4, "test.slt"));
        assert!(e.msg.contains("unknown record type `frobnicate`"), "{e}");
        assert_eq!(e.to_string(), format!("test.slt:4: {}", e.msg));
    }

    #[test]
    fn query_without_result_separator_is_an_error() {
        let e = err("query I\nSELECT 1\n1\n");
        // The `1` line is swallowed into the SQL block, so the missing
        // `----` is reported against the record's own line.
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("----"), "{e}");
    }

    #[test]
    fn bad_type_and_sort_strings_are_errors() {
        assert!(err("query X\nSELECT 1\n----\n")
            .msg
            .contains("bad type character `X`"));
        assert!(err("query I upsort\nSELECT 1\n----\n")
            .msg
            .contains("bad sort mode"));
        assert!(err("query I\n----\n").msg.contains("no SQL"));
    }

    #[test]
    fn guards_must_precede_a_query() {
        let e = err("onlyif unnested\nstatement ok\nSELECT 1\n");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("query records only"), "{e}");
        let e = err("skipif s1\n");
        assert!(e.msg.contains("without a following query"), "{e}");
        let e = err("onlyif turbo\nquery I\nSELECT 1\n----\n1\n");
        assert!(e.msg.contains("unknown strategy `turbo`"), "{e}");
    }

    #[test]
    fn ragged_result_rows_are_an_error() {
        let e = err("query II\nSELECT 1, 2\n----\n1\n2\n3\n");
        assert!(e.msg.contains("do not fill rows"), "{e}");
    }

    #[test]
    fn load_validates_its_arguments() {
        assert!(err("load tpch 50\nx\n")
            .msg
            .contains("bad tpch scale factor"));
        assert!(err("load mystery 1\nx\n")
            .msg
            .contains("load tpch|strings|skew"));
        assert_eq!(
            parse("load skew 500\n").unwrap().records[0].kind,
            RecordKind::Load(LoadKind::Skew {
                rows: 500,
                seed: 42
            })
        );
    }
}
