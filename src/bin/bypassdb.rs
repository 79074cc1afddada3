//! `bypassdb` — an interactive SQL shell for the bypass engine.
//!
//! ```text
//! cargo run --release --bin bypassdb [script.sql ...]
//! ```
//!
//! Reads statements (terminated by `;`) from the given files and then
//! from stdin. Meta commands:
//!
//! ```text
//! \help                      this help
//! \tables                    list tables with row counts and materialised column bytes
//! \schema <table>            show a table's columns
//! \strategy [name]           show or set the evaluation strategy
//! \explain <sql>             logical + physical plan
//! \analyze <sql>             EXPLAIN ANALYZE (runs the query)
//! \load <table> <file.csv>   create a table from a CSV file
//! \demo [sf]                 load the paper's RST demo tables
//! \timing on|off             toggle wall-clock reporting
//! \q                         quit
//! ```

use std::io::{BufRead, Write};
use std::time::Instant;

use bypass::datagen::rst;
use bypass::{Database, Strategy};
use bypass_catalog::load_csv_file;

struct Shell {
    db: Database,
    strategy: Strategy,
    timing: bool,
}

fn main() {
    let mut shell = Shell {
        db: Database::new(),
        strategy: Strategy::Unnested,
        timing: true,
    };
    println!(
        "bypassdb — unnesting scalar SQL queries in the presence of disjunction\n\
         type \\help for meta commands; statements end with `;`"
    );

    // Execute script files from the command line first.
    for path in std::env::args().skip(1) {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for stmt in split_statements(&text) {
                    shell.run_line(&stmt);
                }
            }
            Err(e) => eprintln!("cannot read {path}: {e}"),
        }
    }

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("bypass> ");
        } else {
            print!("   ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !shell.meta(trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            let stmt = std::mem::take(&mut buffer);
            shell.run_line(stmt.trim().trim_end_matches(';'));
        }
    }
}

impl Shell {
    /// Execute one SQL statement and print the result.
    fn run_line(&mut self, sql: &str) {
        if sql.trim().is_empty() {
            return;
        }
        let start = Instant::now();
        let result = if sql.trim_start().to_ascii_uppercase().starts_with("SELECT") {
            self.db
                .sql_with(sql, self.strategy, None)
                .map(bypass::Response::Rows)
        } else {
            self.db.execute_sql(sql)
        };
        match result {
            Ok(bypass::Response::Rows(rel)) => {
                print!("{rel}");
                if self.timing {
                    println!("({:.3}s, {})", start.elapsed().as_secs_f64(), self.strategy);
                }
            }
            Ok(bypass::Response::Created) => println!("CREATE TABLE"),
            Ok(bypass::Response::Inserted(n)) => println!("INSERT {n}"),
            Ok(bypass::Response::Explained(text)) | Ok(bypass::Response::Metrics(text)) => {
                println!("{text}")
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }

    /// Handle a meta command; returns `false` to quit.
    fn meta(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match cmd {
            "\\q" | "\\quit" | "\\exit" => return false,
            "\\help" | "\\?" => {
                println!(
                    "\\tables  \\schema <t>  \\strategy [{}]\n\
                     \\explain <sql>  \\analyze <sql>  \\load <t> <csv>  \\demo [sf]\n\
                     \\timing on|off  \\q",
                    Strategy::all().map(|s| s.to_string()).join("|")
                );
            }
            "\\tables" => {
                let catalog = self.db.catalog();
                for table in catalog
                    .table_names()
                    .iter()
                    .filter_map(|n| catalog.get(n).ok())
                {
                    println!(
                        "{}  ({} rows)  columns: {} bytes",
                        table.name(),
                        table.row_count(),
                        table.columns().bytes()
                    );
                }
            }
            "\\schema" => match rest.first() {
                Some(t) => match self.db.catalog().get(t) {
                    Ok(table) => println!("{}", table.schema()),
                    Err(e) => eprintln!("error: {e}"),
                },
                None => eprintln!("usage: \\schema <table>"),
            },
            "\\strategy" => match rest.first() {
                None => println!("{}", self.strategy),
                Some(name) => match Strategy::all().into_iter().find(|s| s.to_string() == *name) {
                    Some(s) => {
                        self.strategy = s;
                        println!("strategy set to {s}");
                    }
                    None => eprintln!(
                        "unknown strategy `{name}`; one of: {}",
                        Strategy::all().map(|s| s.to_string()).join(", ")
                    ),
                },
            },
            "\\explain" => {
                let sql = line.trim_start_matches("\\explain").trim();
                match self.db.explain(sql, self.strategy) {
                    Ok(text) => println!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            "\\analyze" => {
                let sql = line.trim_start_matches("\\analyze").trim();
                match self.db.explain_analyze(sql, self.strategy) {
                    Ok(text) => println!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            "\\load" => match (rest.first(), rest.get(1)) {
                (Some(table), Some(path)) => match load_csv_file(path) {
                    Ok(rel) => {
                        let n = rel.len();
                        match self.db.register_table(*table, rel) {
                            Ok(()) => println!("loaded {n} rows into {table}"),
                            Err(e) => eprintln!("error: {e}"),
                        }
                    }
                    Err(e) => eprintln!("error: {e}"),
                },
                _ => eprintln!("usage: \\load <table> <file.csv>"),
            },
            "\\demo" => {
                let sf: f64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(0.01);
                match rst::register(self.db.catalog_mut(), &rst::generate(sf, sf, 42)) {
                    Ok(()) => println!(
                        "loaded RST demo at SF {sf} ({} rows per table); try:\n\
                         SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) \
                         FROM s WHERE a2 = b2) OR a4 > 1500;",
                        (10_000.0 * sf) as usize
                    ),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            "\\timing" => {
                self.timing = rest.first() != Some(&"off");
                println!("timing {}", if self.timing { "on" } else { "off" });
            }
            other => eprintln!("unknown command {other}; try \\help"),
        }
        true
    }
}

/// Split script text into `;`-terminated statements (quotes respected).
fn split_statements(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}
