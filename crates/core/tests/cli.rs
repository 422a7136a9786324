//! Pins what the `mlbox` binary prints for warnings: only the user's own
//! (the prelude's partial `nth` never shows), labelled as warnings, and
//! rendered against the user's source in both `mlbox run` and the REPL.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const PARTIAL: &str = "fun hd l = case l of a :: r => a";

fn mlbox(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mlbox"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mlbox starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    let out = child.wait_with_output().expect("mlbox exits");
    assert!(out.status.success(), "{out:?}");
    out
}

fn run_file(name: &str, src: &str) -> Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, src).expect("source written");
    mlbox(&["run", path.to_str().expect("utf-8 path")], "")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn run_prints_no_prelude_warning() {
    let out = run_file("cli_clean.ml", "val x = 1 + 2\n");
    assert_eq!(text(&out.stderr), "");
    assert_eq!(
        text(&out.stdout),
        "val x : int = 3   (8 steps, 0 emitted)\n"
    );
}

#[test]
fn run_renders_a_user_warning_as_a_warning() {
    let out = run_file("cli_partial.ml", &format!("val x = 1 + 2\n{PARTIAL}\n"));
    assert_eq!(
        text(&out.stderr),
        "elaborate warning at 2:12: match is not exhaustive\n\
         \x20 | fun hd l = case l of a :: r => a\n\
         \x20 |            ^^^^^^^^^^^^^^^^^^^^^\n"
    );
}

#[test]
fn repl_renders_only_the_user_warning() {
    let out = mlbox(&["repl"], &format!("val x = 1 + 2\n{PARTIAL}\n:q\n"));
    let stdout = text(&out.stdout);
    let first = stdout
        .find("mlbox> ")
        .expect("a prompt before the first input");
    let (_, answers) = stdout.split_at(first);
    assert!(
        answers.starts_with("mlbox> val x : int = 3   (8 steps)\nmlbox> "),
        "the first input prints no warning:\n{stdout}"
    );
    assert!(
        answers.contains(
            "mlbox> elaborate warning at 1:12: match is not exhaustive\n\
             \x20 | fun hd l = case l of a :: r => a\n\
             \x20 |            ^^^^^^^^^^^^^^^^^^^^^\n"
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("error"), "{stdout}");
}
