//! Integration test for the `bypassdb` shell: drive the binary through
//! stdin and check its output end-to-end.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_shell(input: &str) -> String {
    let exe = env!("CARGO_BIN_EXE_bypassdb");
    let mut child = Command::new(exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bypassdb");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn create_insert_select_roundtrip() {
    let out = run_shell(
        "CREATE TABLE t (x INT, label TEXT);\n\
         INSERT INTO t VALUES (1, 'one'), (2, 'two');\n\
         SELECT label FROM t WHERE x = 2;\n\
         \\q\n",
    );
    assert!(out.contains("CREATE TABLE"), "{out}");
    assert!(out.contains("INSERT 2"), "{out}");
    assert!(out.contains("two"), "{out}");
}

#[test]
fn demo_and_nested_query() {
    let out = run_shell(
        "\\demo 0.002\n\
         SELECT COUNT(*) FROM r;\n\
         SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
         WHERE a2 = b2) OR a4 > 2990;\n\
         \\q\n",
    );
    assert!(out.contains("loaded RST demo"), "{out}");
    assert!(out.contains("| 20"), "20 rows at SF 0.002: {out}");
}

#[test]
fn meta_commands() {
    let out = run_shell(
        "\\demo 0.001\n\
         \\tables\n\
         \\schema r\n\
         \\strategy canonical\n\
         \\strategy nope\n\
         \\explain SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500\n\
         \\timing off\n\
         SELECT COUNT(*) FROM r WHERE a4 > 1500;\n\
         \\tables\n\
         \\q\n",
    );
    assert!(out.contains("r  (10 rows)  columns: 0 bytes"), "{out}");
    // The σ read `a4` by column: ten 8-byte slots, built on that read.
    assert!(out.contains("r  (10 rows)  columns: 80 bytes"), "{out}");
    assert!(out.contains("a1: INT"), "{out}");
    assert!(out.contains("strategy set to canonical"), "{out}");
    assert!(out.contains("unknown strategy"), "{out}");
    assert!(out.contains("-- logical plan (canonical)"), "{out}");
    assert!(out.contains("timing off"), "{out}");
}

#[test]
fn analyze_and_errors() {
    let out = run_shell(
        "\\demo 0.001\n\
         \\analyze SELECT COUNT(*) FROM r\n\
         SELECT * FROM missing;\n\
         SELECT nope FROM r;\n\
         \\q\n",
    );
    assert!(out.contains("calls=1"), "{out}");
    assert!(out.contains("does not exist"), "{out}");
    assert!(out.contains("unknown column"), "{out}");
}

#[test]
fn csv_load_via_shell() {
    let dir = std::env::temp_dir().join("bypassdb_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("people.csv");
    std::fs::write(&path, "id,name,age\n1,ada,36\n2,bob,\n3,cyn,29\n").unwrap();
    let out = run_shell(&format!(
        "\\load people {}\n\
         SELECT COUNT(*), COUNT(age) FROM people;\n\
         \\q\n",
        path.display()
    ));
    assert!(out.contains("loaded 3 rows into people"), "{out}");
    // COUNT(*) = 3, COUNT(age) = 2 (one NULL).
    assert!(out.contains("| 3"), "{out}");
    assert!(out.contains("| 2"), "{out}");
}

#[test]
fn script_file_argument() {
    let dir = std::env::temp_dir().join("bypassdb_cli_script");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("setup.sql");
    std::fs::write(
        &script,
        "CREATE TABLE s1 (v INT);\nINSERT INTO s1 VALUES (41), (42);\n",
    )
    .unwrap();
    let exe = env!("CARGO_BIN_EXE_bypassdb");
    let mut child = Command::new(exe)
        .arg(&script)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"SELECT v FROM s1 WHERE v > 41;\n\\q\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("42"), "{text}");
}
